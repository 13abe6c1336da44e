// Package chaos is the deterministic fault-injection layer (DESIGN.md §9).
// A Plan is a schedule of fault points — process kills, severed or delayed
// remote edges, dropped control messages, failing or corrupting snapshot
// backend writes — generated as a pure function of a 64-bit seed, so any
// failing schedule reproduces from its seed alone.
//
// Faults inject at the system's trust boundaries, never inside the
// runtime: backends wrap snapshot.Backend, connections wrap net.Conn, and
// process kills reuse the supervisor's crash trigger. The runtime under
// test cannot tell injected faults from real ones, and production paths
// pay nothing when chaos is off — the wrap constructors return the
// original object untouched when no fault targets it.
//
// Determinism contract: the SCHEDULE is deterministic — same seed, same
// faults, same trigger ordinals. The execution interleaving is not (goroutine
// scheduling and wall-clock pacing vary run to run), which is the point:
// the crash ≡ clean invariant must hold under every interleaving of the
// scheduled faults, and a seed that fails replays the same schedule into
// the same code paths with high fidelity.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/plan"
)

// Rand is a splitmix64 generator: tiny state, high quality, and trivially
// reproducible — the same generator the traffic workload uses, duplicated
// here so fault schedules never perturb workload randomness (or vice
// versa).
type Rand struct{ s uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Uint64 returns the next raw output.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	// Rejection sampling to kill modulo bias.
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := r.Uint64()
		if v < max {
			return int(v % uint64(n))
		}
	}
}

// FaultKind identifies one injectable fault point.
type FaultKind uint8

const (
	// FaultKill SIGKILLs the process once its durable progress (newest
	// persisted epoch) reaches Epoch, after an extra Delay — the delay
	// varies which phase of the next epoch the kill lands in (mid-barrier,
	// mid-encode, mid-persist).
	FaultKill FaultKind = iota + 1
	// FaultSever closes the wrapped connection at the Nth write.
	FaultSever
	// FaultDelay stalls writes N..N+Count-1 on the wrapped connection by
	// Delay each — a slow edge mid-barrier, exercising write/read deadlines
	// without tripping them.
	FaultDelay
	// FaultDropWrite swallows the Nth write on the wrapped connection
	// (reports success, sends nothing). On a control connection each write
	// is one framed message, so this drops exactly one ack or commit
	// notice. Never schedule it on a data connection: one write there is one
	// whole frame too, but a run of tuples (or a punctuation, a barrier, the
	// EOS) — the frames carry no sequence numbers, TCP never loses one, and
	// the drop would be silent data loss no recovery protocol repairs.
	FaultDropWrite
	// FaultFailOp fails the Nth Put on the wrapped backend, as a dying disk
	// would: the checkpoint or commit that made the Put abandons its epoch,
	// and the run goes on.
	FaultFailOp
	// FaultTornWrite truncates the Nth Put's payload to Pct percent — a
	// torn write on a backend without atomic-rename guarantees.
	FaultTornWrite
	// FaultBitFlip flips bit (Bit mod payload bits) of the Nth Put's
	// payload — silent media corruption the checksum must catch at restore.
	FaultBitFlip
)

func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultSever:
		return "sever"
	case FaultDelay:
		return "delay"
	case FaultDropWrite:
		return "drop-write"
	case FaultFailOp:
		return "fail-put"
	case FaultTornWrite:
		return "torn-put"
	case FaultBitFlip:
		return "bit-flip"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Target names which component of a process a fault attaches to.
type Target uint8

const (
	// TargetProcess is the process itself (kills).
	TargetProcess Target = iota + 1
	// TargetChain is the snapshot backend under the local checkpoint chain
	// (and, in the coordinator, the manifest log sharing it).
	TargetChain
	// TargetData is the remote data connection.
	TargetData
	// TargetCtrl is the distributed-checkpoint control connection.
	TargetCtrl
)

func (t Target) String() string {
	switch t {
	case TargetProcess:
		return "process"
	case TargetChain:
		return "chain"
	case TargetData:
		return "data"
	case TargetCtrl:
		return "ctrl"
	default:
		return fmt.Sprintf("target(%d)", uint8(t))
	}
}

// Fault is one scheduled fault point. Which fields matter depends on Kind;
// unused fields are zero.
type Fault struct {
	Kind   FaultKind
	Target Target
	// Part is the plan part the fault hits: plan.Coordinator (the whole
	// plan of a single-process run) or "follow" under -dist.
	Part string
	// Incarnation is the restart generation the fault arms in: 0 is the
	// first run of the process, 1 the first restart, and so on. A fault
	// whose incarnation is never reached simply does not fire.
	Incarnation int
	// Epoch is FaultKill's durable-progress threshold.
	Epoch int64
	// N is the 0-based op ordinal (backend Puts or conn writes, counted
	// within the incarnation) the fault fires at.
	N int
	// Count is FaultDelay's write span.
	Count int
	// Delay is the stall for FaultDelay and the post-threshold delay for
	// FaultKill.
	Delay time.Duration
	// Bit selects FaultBitFlip's bit (mod payload size).
	Bit int
	// Pct is FaultTornWrite's surviving prefix in percent (1..99).
	Pct int
}

func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s part=%s inc=%d", f.Kind, f.Target, f.Part, f.Incarnation)
	switch f.Kind {
	case FaultKill:
		fmt.Fprintf(&b, " epoch=%d delay=%s", f.Epoch, f.Delay)
	case FaultSever, FaultDropWrite:
		fmt.Fprintf(&b, " write=%d", f.N)
	case FaultDelay:
		fmt.Fprintf(&b, " write=%d count=%d delay=%s", f.N, f.Count, f.Delay)
	case FaultFailOp:
		fmt.Fprintf(&b, " put=%d", f.N)
	case FaultTornWrite:
		fmt.Fprintf(&b, " put=%d pct=%d", f.N, f.Pct)
	case FaultBitFlip:
		fmt.Fprintf(&b, " put=%d bit=%d", f.N, f.Bit)
	}
	b.WriteString(")")
	return b.String()
}

// Plan is one seeded fault schedule.
type Plan struct {
	Seed   uint64
	Dist   bool
	Faults []Fault
}

// String renders the schedule on one line — what a failing fuzz run prints
// next to its seed.
func (p *Plan) String() string {
	if len(p.Faults) == 0 {
		return "(no faults)"
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}

// maxFatal caps restart-costing faults per schedule so every run
// terminates well inside the supervisor's restart budget. Kills and severs
// each cost one restart; every other fault costs at most an epoch.
const maxFatal = 3

// Generate derives the fault schedule for a seed — a pure function:
// calling it twice with the same arguments yields identical plans, which
// is the whole replayability story. Schedules are constructed to
// terminate: at most maxFatal restart-costing faults, kill thresholds
// strictly increasing across incarnations (a restored run's durable
// progress starts at the last kill's epoch, so a non-increasing threshold
// would re-fire instantly), and each restart-costing fault armed in its
// own incarnation (the i-th such fault fires in generation i — earlier
// generations died before reaching it).
func Generate(seed uint64, dist bool) *Plan {
	r := NewRand(seed)
	p := &Plan{Seed: seed, Dist: dist}
	n := 1 + r.Intn(3)
	fatal := 0
	lastKill := int64(0)
	for i := 0; i < n; i++ {
		var f Fault
		if dist {
			f = genDist(r, &fatal, &lastKill)
		} else {
			f = genSingle(r, &fatal, &lastKill)
		}
		p.Faults = append(p.Faults, f)
	}
	return p
}

// killFault builds a kill with a strictly increasing threshold.
func killFault(r *Rand, fatal *int, lastKill *int64, part string) Fault {
	*lastKill += 1 + int64(r.Intn(3))
	f := Fault{
		Kind: FaultKill, Target: TargetProcess, Part: part,
		Incarnation: *fatal, Epoch: *lastKill,
		Delay: time.Duration(r.Intn(150)) * time.Millisecond,
	}
	*fatal++
	return f
}

func genSingle(r *Rand, fatal *int, lastKill *int64) Fault {
	pick := r.Intn(10)
	if pick < 5 && *fatal >= maxFatal {
		pick = 7 // restart budget spent: degrade to a corruption fault
	}
	switch {
	case pick < 5:
		return killFault(r, fatal, lastKill, plan.Coordinator)
	case pick < 7:
		// A failed put abandons one epoch and costs no restart, so like the
		// corruption faults below it arms in any incarnation the run reaches.
		return Fault{Kind: FaultFailOp, Target: TargetChain, Part: plan.Coordinator,
			Incarnation: r.Intn(*fatal + 1), N: 1 + r.Intn(6)}
	}
	// Corruption faults are non-fatal at write time; they bite on the next
	// restore, so arm them in any incarnation a fatal fault can reach.
	f := Fault{Target: TargetChain, Part: plan.Coordinator, Incarnation: r.Intn(*fatal + 1), N: r.Intn(6)}
	if pick < 9 {
		f.Kind, f.Bit = FaultBitFlip, r.Intn(1<<20)
	} else {
		f.Kind, f.Pct = FaultTornWrite, 1+r.Intn(90)
	}
	return f
}

func genDist(r *Rand, fatal *int, lastKill *int64) Fault {
	pick := r.Intn(10)
	if (pick < 4 || pick == 4) && *fatal >= maxFatal {
		pick = 5 // restart budget spent: degrade to a delay fault
	}
	switch {
	case pick < 4:
		part := plan.Coordinator
		if r.Intn(2) == 1 {
			part = "follow"
		}
		return killFault(r, fatal, lastKill, part)
	case pick == 4:
		f := Fault{Kind: FaultSever, Target: TargetData, Part: plan.Coordinator,
			Incarnation: *fatal, N: 20 + r.Intn(2000)}
		*fatal++
		return f
	case pick < 7:
		return Fault{Kind: FaultDelay, Target: TargetData, Part: plan.Coordinator,
			Incarnation: r.Intn(*fatal + 1), N: r.Intn(500),
			Count: 1 + r.Intn(4),
			Delay: time.Duration(10+r.Intn(100)) * time.Millisecond}
	case pick == 7:
		// Drop one follower ack (ctrl write 0 is the hello, so start at 1):
		// the coordinator abandons the epoch on ack timeout.
		return Fault{Kind: FaultDropWrite, Target: TargetCtrl, Part: "follow",
			Incarnation: r.Intn(*fatal + 1), N: 1 + r.Intn(3)}
	case pick == 8:
		// Drop one commit notice (ctrl write 0 is the restore directive):
		// commit notices are best-effort, the follower's retention just
		// lags an epoch.
		return Fault{Kind: FaultDropWrite, Target: TargetCtrl, Part: plan.Coordinator,
			Incarnation: r.Intn(*fatal + 1), N: 1 + r.Intn(3)}
	default:
		// Corrupt a coordinator-side put (snapshot or manifest — the chain
		// and the manifest log share the backend): restore must degrade to
		// an older intact commit.
		return Fault{Kind: FaultBitFlip, Target: TargetChain, Part: plan.Coordinator,
			Incarnation: r.Intn(*fatal + 1), N: r.Intn(6), Bit: r.Intn(1 << 20)}
	}
}

// forPart filters faults for one process incarnation. A nil plan (chaos
// off) has no faults, so call sites need no guard.
func (p *Plan) forPart(part string, inc int, target Target, kinds ...FaultKind) []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for _, f := range p.Faults {
		if f.Part != part || f.Incarnation != inc || f.Target != target {
			continue
		}
		for _, k := range kinds {
			if f.Kind == k {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// SchedulesCorruption reports whether the plan injects storage corruption
// (torn or bit-flipped writes) into the named part — the only way a blob
// can be corrupt after a run, since the Dir backend's temp-file + rename
// Put is atomic even under SIGKILL. Verifiers use it to decide whether a
// corrupt snapshot is an expected degradation or a bug.
func (p *Plan) SchedulesCorruption(part string) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Part == part && (f.Kind == FaultTornWrite || f.Kind == FaultBitFlip) {
			return true
		}
	}
	return false
}

// StarvesCommits reports whether the schedule can legitimately leave a
// distributed run with zero committed manifests: dropping a follower ack
// stalls the coordinator's commit loop for the full ack timeout, which can
// outlast a short run entirely — every epoch abandoned, the stream itself
// unharmed. Verifiers use it to decide whether an empty manifest log is an
// expected outcome or a bug.
func (p *Plan) StarvesCommits() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind == FaultDropWrite && f.Target == TargetCtrl && f.Part == "follow" {
			return true
		}
	}
	return false
}

// Kills returns the kill faults armed for one process incarnation.
func (p *Plan) Kills(part string, inc int) []Fault {
	return p.forPart(part, inc, TargetProcess, FaultKill)
}

// ChainFaults returns the snapshot-backend faults armed for one process
// incarnation, for WrapBackend.
func (p *Plan) ChainFaults(part string, inc int) []Fault {
	return p.forPart(part, inc, TargetChain, FaultFailOp, FaultTornWrite, FaultBitFlip)
}

// ConnFaults returns the connection faults armed for one process
// incarnation and connection, for WrapConn.
func (p *Plan) ConnFaults(part string, inc int, target Target) []Fault {
	return p.forPart(part, inc, target, FaultSever, FaultDelay, FaultDropWrite)
}
