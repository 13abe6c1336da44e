// Command supervise runs a partitioned aggregate plan under periodic
// two-phase checkpoints and restarts it from the newest committed cut after
// a crash.
//
// The plan is written once (buildPlan); -dist places its aggregate on a
// second part, "follow", so the plan runs as two processes. Every part is
// deployed the same way (plan.Deploy): a single-process run is the
// coordinating part with no followers. Three modes share one binary:
//
//   - supervisor (default): spawns one child per part, restarts them all
//     when any exits non-zero (kill -9 included) up to -max-restarts with
//     exponential backoff, and verifies the surviving run completed;
//   - -child: one incarnation of one part (-role), its chain in -dir/<part>;
//   - -fuzz: seeded fault schedules in both modes (fuzz.go).
//
// -crash-after-epochs N makes the FIRST incarnation of the coordinating part
// SIGKILL itself once N checkpoint epochs are committed, so
//
//	supervise -dist -dir /tmp/ck -crash-after-epochs 3
//
// demonstrates the whole loop: run → kill -9 mid-epoch → uncommitted epoch
// abandoned → auto-restart → both parts recover from the last committed
// cut → complete. The final line (results count + checksum over the
// canonical result set) is identical with and without the crash; CI asserts
// exactly that.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	execpkg "repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/work"
)

type options struct {
	dir         string
	interval    time.Duration
	retain      int
	parts       int
	minutes     int
	crashAfter  int
	maxRestarts int
	backoff     time.Duration
	child       bool
	dist        bool
	role        string
	addr        string
	ackTimeout  time.Duration
	chaosSeed   uint64
	chaosInc    int
	fuse        bool
	fuzz        bool
	seed        uint64
	fuzzSeeds   int
	fuzzTime    time.Duration
	telemetry   string
}

// chaosPlan derives this run's fault schedule (nil when chaos is off). The
// schedule depends only on the seed and the mode, never on which child asks.
func (o options) chaosPlan() *chaos.Plan {
	if o.chaosSeed == 0 {
		return nil
	}
	return chaos.Generate(o.chaosSeed, o.dist)
}

func main() {
	var o options
	flag.StringVar(&o.dir, "dir", "", "checkpoint chain directory (required)")
	flag.DurationVar(&o.interval, "interval", 50*time.Millisecond, "checkpoint interval")
	flag.IntVar(&o.retain, "retain", 4, "keep the newest N epochs (0 = all)")
	flag.IntVar(&o.parts, "parts", 2, "aggregate partitions")
	flag.IntVar(&o.minutes, "minutes", 30, "stream-minutes of synthetic traffic to process")
	flag.IntVar(&o.crashAfter, "crash-after-epochs", 0, "SIGKILL the first incarnation after N durable epochs (0 = never)")
	flag.IntVar(&o.maxRestarts, "max-restarts", 5, "supervisor: give up after N restarts")
	flag.DurationVar(&o.backoff, "restart-backoff", 100*time.Millisecond, "supervisor: initial restart delay (doubles per crashing restart, resets after a healthy run)")
	flag.BoolVar(&o.child, "child", false, "run one plan incarnation (internal)")
	flag.BoolVar(&o.dist, "dist", false, "two-process mode: the aggregate runs on a second part, \"follow\", over TCP")
	flag.StringVar(&o.role, "role", plan.Coordinator, "child: the part to run, coord or (under -dist) follow (internal)")
	flag.StringVar(&o.addr, "addr", "", "dist mode: coordinator listen address (internal; supervisor picks one)")
	flag.DurationVar(&o.ackTimeout, "ack-timeout", 10*time.Second, "dist mode: abandon an epoch when follower acks do not arrive in time")
	flag.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "fault-injection schedule seed (0 = chaos off; see internal/chaos)")
	flag.IntVar(&o.chaosInc, "chaos-incarnation", 0, "chaos: restart generation of this child (internal)")
	flag.BoolVar(&o.fuse, "fuse", true, "compile the plan: fuse stateless operator chains into flat kernels (must match between the run that wrote a checkpoint and the run restoring it)")
	flag.BoolVar(&o.fuzz, "fuzz", false, "run seeded chaos schedules (single-process and -dist) and verify crash ≡ clean plus every retained epoch")
	flag.Uint64Var(&o.seed, "seed", 1, "fuzz: base seed; schedules seed..seed+fuzz-seeds-1 run per mode")
	flag.IntVar(&o.fuzzSeeds, "fuzz-seeds", 4, "fuzz: seeds per mode")
	flag.DurationVar(&o.fuzzTime, "fuzz-time", 0, "fuzz: stop starting new seeds after this long (0 = no cap)")
	flag.StringVar(&o.telemetry, "telemetry-addr", "", "serve /metrics, /statusz, /epochz, /tracez and pprof on this address (the coordinating part's child; empty = off)")
	flag.Parse()
	if o.dir == "" && !o.fuzz {
		fmt.Fprintln(os.Stderr, "supervise: -dir is required")
		os.Exit(2)
	}
	var err error
	switch {
	case o.child:
		err = runPart(o)
	case o.fuzz:
		err = runFuzz(o)
	default:
		err = runSupervisor(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "supervise:", err)
		os.Exit(1)
	}
}

// logEvent writes one structured log line: a stable message prefix (CI and
// the integration tests grep these) followed by key=value fields. Values
// containing whitespace are quoted. The RESULTS digest line bypasses this —
// its format is the cross-run equality witness and stays byte-identical
// (digestLine).
func logEvent(msg string, kvs ...any) {
	var sb strings.Builder
	sb.WriteString(msg)
	for i := 0; i+1 < len(kvs); i += 2 {
		v := fmt.Sprint(kvs[i+1])
		if strings.ContainsAny(v, " \t") {
			v = strconv.Quote(v)
		}
		fmt.Fprintf(&sb, " %v=%s", kvs[i], v)
	}
	fmt.Println(sb.String())
}

// healthyRun is how long a child must survive for its crash to count as
// fresh (resetting the restart backoff) rather than part of a crash loop.
const healthyRun = 2 * time.Second

// args renders as flags the options a supervisor hands on: to its
// children, and from -fuzz to each supervisor it starts.
func (o options) args() []string {
	args := []string{"-dir", o.dir,
		"-interval", o.interval.String(),
		"-retain", fmt.Sprint(o.retain),
		"-parts", fmt.Sprint(o.parts),
		"-minutes", fmt.Sprint(o.minutes),
		"-ack-timeout", o.ackTimeout.String(),
		"-fuse=" + fmt.Sprint(o.fuse),
	}
	if o.dist {
		args = append(args, "-dist")
	}
	if o.chaosSeed != 0 {
		args = append(args, "-chaos-seed", fmt.Sprint(o.chaosSeed))
	}
	return args
}

// childArgs assembles the flags of a child running one part. Incarnation
// always rides along: it labels the structured logs even without chaos.
func (o options) childArgs(part string) []string {
	args := append(o.args(), "-child", "-role", part, "-addr", o.addr, "-chaos-incarnation", fmt.Sprint(o.chaosInc))
	// Only the coordinating part serves telemetry: two listeners on one
	// address would collide.
	if o.telemetry != "" && part == plan.Coordinator {
		args = append(args, "-telemetry-addr", o.telemetry)
	}
	return args
}

// runSupervisor restarts a run's children until one incarnation completes:
// one child per part of the plan, joined over -addr under -dist. When any
// child dies with an error the others are killed — half a plan cannot
// complete alone — and the run restarts from the newest committed cut.
func runSupervisor(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	b, _ := buildPlan(o)
	parts := b.Parts()
	if o.dist && o.addr == "" {
		// Reserve a loopback port by binding and releasing it; the
		// coordinating child re-binds it. The window between is racy in
		// principle but safe against ourselves.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		o.addr = l.Addr().String()
		l.Close()
	}
	// Restarts back off exponentially while children keep crashing, so one
	// that dies on startup cannot burn -max-restarts in milliseconds.
	base := cmp.Or(max(o.backoff, 0), 100*time.Millisecond)
	delay, restarts := base, 0
	for {
		o.chaosInc = restarts
		children := make([]*exec.Cmd, 0, len(parts))
		done := make(chan error, len(parts)) // one send per started child
		killAll := func() {
			for _, c := range children {
				c.Process.Signal(syscall.SIGKILL)
			}
		}
		start := time.Now()
		for i, part := range parts {
			args := o.childArgs(part)
			// The coordinating child is the one told to crash itself.
			if i == 0 && restarts == 0 && o.crashAfter > 0 {
				args = append(args, "-crash-after-epochs", fmt.Sprint(o.crashAfter))
			}
			c := exec.Command(self, args...)
			c.Stdout = os.Stdout
			c.Stderr = os.Stderr
			if err := c.Start(); err != nil {
				killAll()
				for range children {
					<-done
				}
				return err
			}
			children = append(children, c)
			go func() { done <- c.Wait() }()
		}
		var errs []error
		for range children {
			if err := <-done; err != nil {
				killAll()
				errs = append(errs, err)
			}
		}
		if len(errs) == 0 {
			logEvent(fmt.Sprintf("SUPERVISOR completed restarts=%d", restarts),
				"role", "supervisor", "seed", o.chaosSeed)
			return nil
		}
		ran := time.Since(start)
		logEvent("SUPERVISOR run exited; restarting from latest committed cut",
			"role", "supervisor", "seed", o.chaosSeed, "incarnation", restarts,
			"ran", ran.Round(time.Millisecond), "errs", errs)
		restarts++
		if restarts > o.maxRestarts {
			return fmt.Errorf("gave up after %d restarts", o.maxRestarts)
		}
		if ran >= healthyRun {
			delay = base
		}
		logEvent("SUPERVISOR backing off before restart", "delay", delay)
		time.Sleep(delay)
		delay = min(2*delay, 5*time.Second)
	}
}

// armKills starts one watcher per kill fault: once the part's durable
// progress reaches the fault's epoch threshold, wait the fault's delay
// (which varies the phase of the next epoch the kill lands in) and SIGKILL
// — a genuine kill -9, nothing is flushed or unwound.
func armKills(kills []chaos.Fault, progress func() int64) {
	for _, f := range kills {
		go func(f chaos.Fault) {
			for {
				time.Sleep(5 * time.Millisecond)
				if v := progress(); v >= f.Epoch {
					time.Sleep(f.Delay)
					logEvent("CHILD self-destructing (kill -9)", "fault", f, "progress", v)
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
			}
		}(f)
	}
}

// runPart runs one incarnation of one part of the plan (-role), its chain in
// -dir/<part>, with chaos faults wrapped around its store and connections.
// The part that ends in the sink prints the RESULTS line; a single-process
// run logs as CHILD, a -dist part under its own name.
func runPart(o options) error {
	part, cp := o.role, o.chaosPlan()
	tag, restored := "CHILD", "CHILD restored from epoch"
	var t plan.Transport
	if o.dist {
		tag = strings.ToUpper(part)
		restored = tag + " restored from committed epoch"
		t = chaos.WrapTransport(plan.TCP(o.addr),
			cp.ConnFaults(part, o.chaosInc, chaos.TargetCtrl), cp.ConnFaults(part, o.chaosInc, chaos.TargetData))
	}
	role := strings.ToLower(tag)
	store, err := snapshot.NewDir(filepath.Join(o.dir, part))
	if err != nil {
		return err
	}
	b, sink := buildPlan(o)
	if o.telemetry != "" {
		// The control-plane tracer is on: supervised runs are demos and
		// debugging runs, where /tracez earning its keep beats the
		// (bounded, off-hot-path) recording cost.
		tel := telemetry.New()
		tel.Tracer.SetEnabled(true)
		b.EnableTelemetry(tel)
		srv, err := telemetry.Serve(o.telemetry, tel)
		if err != nil {
			return err
		}
		defer srv.Close()
		logEvent("TELEMETRY serving", "addr", srv.Addr(), "role", role, "seed", o.chaosSeed, "incarnation", o.chaosInc)
	}
	// An injected write failure fails that one Put, exactly like a dying
	// disk, and abandons the epoch it hits.
	dep, err := plan.Deploy(b, part, chaos.WrapBackend(store, cp.ChainFaults(part, o.chaosInc)), t)
	if err != nil {
		return err
	}
	for _, sk := range dep.Degraded {
		logEvent(tag+" restore degraded: skipped corrupt epoch", "epoch", sk.Epoch, "err", sk.Err)
	}
	if dep.Restored > 0 {
		logEvent(fmt.Sprintf("%s %d", restored, dep.Restored),
			"role", role, "seed", o.chaosSeed, "incarnation", o.chaosInc, "epoch", dep.Restored)
	} else {
		logEvent(tag+" cold start", "role", role, "seed", o.chaosSeed, "incarnation", o.chaosInc)
	}
	kills := cp.Kills(part, o.chaosInc)
	if o.crashAfter > 0 {
		kills = append(kills, chaos.Fault{Kind: chaos.FaultKill, Target: chaos.TargetProcess,
			Part: part, Incarnation: o.chaosInc, Epoch: int64(o.crashAfter)})
	}
	progress := dep.Committed // a follower's is what it persisted (DESIGN.md §9.1)
	if part != plan.Coordinator {
		progress = dep.Persisted
	}
	armKills(kills, progress)

	runErr, chkErr := dep.Run(execpkg.CheckpointPolicy{Interval: o.interval, Retain: o.retain}, o.ackTimeout)
	if runErr != nil {
		return runErr
	}
	if chkErr != nil {
		// Abandoned epochs are expected around a crash or an injected fault
		// (a failed write abandons the epoch it hits) and never touch the
		// results.
		logEvent(tag+" checkpoint maintenance", "role", role, "err", chkErr)
	}
	logEvent(tag+" done", "role", role, "seed", o.chaosSeed,
		"incarnation", o.chaosInc, "committed", dep.Committed())
	if parts := b.Parts(); part == parts[len(parts)-1] {
		fmt.Println(digestLine(sink))
	}
	return nil
}

// preStage prepends the stateless normalization chain shared by every mode:
// a keep-everything filter (ts is never null and never negative) plus a
// carry-all rename. It is a semantic no-op whose purpose is giving the plan
// compiler a fusible stateless prefix on the hot path; with -fuse the two
// operators become one clean+norm kernel — a prefix on the exchange Split's
// input port in the single-process plan, a standalone fused(clean+norm) node
// feeding the cut's remote sink under -dist — so both compiled forms are
// exercised by every fuzz run.
func preStage(s plan.Stream) plan.Stream {
	s = s.SelectExpr("clean", punct.ExprStep{Col: 2, Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))})
	outs := make([]op.MapAttr, gen.TrafficSchema.Arity())
	for i := range outs {
		outs[i] = op.Carry(gen.TrafficSchema.Field(i).Name)
	}
	return s.Map("norm", outs...)
}

// aggStage is the per-partition aggregate sub-plan. The leading keep-all
// filter is another semantic no-op: a lone stateless operator inside each
// partition, which -fuse absorbs into that partition's aggregate as a prefix
// kernel (fused(pclean=>agg)) — so every chaos run drives the prefixed
// batched-fold path through kills, restores, and feedback.
func aggStage(ss plan.Stream) plan.Stream {
	ss = ss.SelectExpr("pclean", punct.ExprStep{Col: 2, Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))})
	return ss.Through(&op.Aggregate{OpName: "agg", In: gen.TrafficSchema, Kind: core.AggAvg,
		TsAttr: 2, ValAttr: 3, GroupBy: []int{0}, Window: window.Tumbling(minute),
		ValueName: "avg_speed", Mode: op.FeedbackExploit, Propagate: true})
}

// minute is a minute in stream time (micros).
const minute = int64(60_000_000)

// buildPlan assembles the demo workload — every mode's, and the fuzz
// verifier's, which must rebuild byte-identical plans to restore into:
// deterministic synthetic traffic → Parallel(parts) per-segment average →
// recording sink, with the aggregate placed on part "follow" under -dist.
// Every node is a snapshot.Stater, so the whole plan recovers.
func buildPlan(o options) (*plan.Builder, *execpkg.Collector) {
	b := plan.New()
	s := preStage(b.Source(&gen.TrafficSource{Config: gen.TrafficConfig{
		Segments: 6, DetectorsPerSegment: 10, Duration: int64(o.minutes) * minute,
		NullRate: 0.1, Noise: 3, Seed: 42,
		// Cost paces ingest (~500µs/tuple) so the run spans seconds and
		// checkpoints land mid-stream instead of after a millisecond blast.
		Cost: work.UnitsFor(500 * time.Microsecond),
	}}))
	if o.dist {
		s = s.Place("follow")
	}
	sink := s.Parallel("part", o.parts, []string{"segment"}, aggStage).Collect("sink")
	if o.fuse {
		b.Compile()
	}
	return b, sink
}

// digestLine renders the RESULTS line: a count and a hash of the
// order-independent result set, the equality witness between
// crashed-and-recovered and uninterrupted runs — single-sourced so the fuzz
// verifier's replays compare byte-identically against run output.
func digestLine(sink *execpkg.Collector) string {
	lines := sink.Lines()
	h := fnv.New32a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("RESULTS count=%d checksum=%08x", len(lines), h.Sum32())
}
