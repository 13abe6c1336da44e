// Command supervise runs a partitioned aggregate plan under periodic
// two-phase checkpoints and restarts it from the newest committed cut after
// a crash — the fault-tolerant runtime the ROADMAP's "checkpoint scheduling
// & retention" item asks for.
//
// Three modes share one binary, and one checkpoint protocol — the
// single-process child is a coordinator with no followers:
//
//   - supervisor (default): spawns itself with -child, restarts it on any
//     non-zero exit (kill -9 included) up to -max-restarts with exponential
//     backoff, and verifies the surviving run completed;
//   - -dist supervisor: the two-process mode — the plan is split across a
//     producer (checkpoint coordinator) and a consumer (follower) process
//     joined by a TCP data edge plus a control connection; checkpoint
//     barriers cross the wire so both subplans cut the same epoch, each
//     persists its own chain, and the coordinator commits a distributed
//     manifest only after the follower's ack. If either process dies, the
//     supervisor kills the other and restarts the pair from the newest
//     committed manifest;
//   - -child: one plan incarnation — single-process (-role ""), or one half
//     of the distributed pair (-role coord / -role follow).
//
// -crash-after-epochs N makes the FIRST incarnation SIGKILL itself once N
// checkpoint epochs are committed (a manifest durable beside the chain), so
//
//	supervise -dist -dir /tmp/ck -crash-after-epochs 3
//
// demonstrates the whole loop: run → kill -9 mid-epoch → uncommitted epoch
// abandoned → auto-restart → both subplans recover from the last committed
// cut → complete. The final line (results count + checksum over the
// canonical result set) is identical with and without the crash; CI asserts
// exactly that.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
	"repro/internal/remote"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/work"
)

type options struct {
	dir          string
	interval     time.Duration
	retain       int
	parts        int
	minutes      int
	crashAfter   int
	maxRestarts  int
	backoff      time.Duration
	child        bool
	dist         bool
	role         string
	addr         string
	ackTimeout   time.Duration
	writeTimeout time.Duration
	readTimeout  time.Duration
	chaosSeed    uint64
	chaosInc     int
	fuse         bool
	fuzz         bool
	seed         uint64
	fuzzSeeds    int
	fuzzTime     time.Duration
	telemetry    string
}

// chaosPlan derives this run's fault schedule (nil when chaos is off). The
// schedule depends only on the seed and the mode, never on which child asks.
func (o options) chaosPlan() *chaos.Plan {
	if o.chaosSeed == 0 {
		return nil
	}
	return chaos.Generate(o.chaosSeed, o.dist || o.role != "")
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
	flag.BoolVar(&o.dist, "dist", false, "two-process mode: producer/coordinator + consumer/follower over TCP")
	flag.StringVar(&o.role, "role", "", "child role in dist mode: coord or follow (internal)")
	flag.StringVar(&o.addr, "addr", "", "dist mode: coordinator listen address (internal; supervisor picks one)")
	flag.DurationVar(&o.ackTimeout, "ack-timeout", 10*time.Second, "dist mode: abandon an epoch when follower acks do not arrive in time")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second, "dist mode: remote sink write deadline (0 = none)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "dist mode: remote source idle read deadline (0 = none)")
	flag.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "fault-injection schedule seed (0 = chaos off; see internal/chaos)")
	flag.IntVar(&o.chaosInc, "chaos-incarnation", 0, "chaos: restart generation of this child (internal)")
	flag.BoolVar(&o.fuse, "fuse", true, "compile the plan: fuse stateless operator chains into flat kernels (must match between the run that wrote a checkpoint and the run restoring it)")
	flag.BoolVar(&o.fuzz, "fuzz", false, "run seeded chaos schedules (single-process and -dist) and verify crash ≡ clean plus every retained epoch")
	flag.Uint64Var(&o.seed, "seed", 1, "fuzz: base seed; schedules seed..seed+fuzz-seeds-1 run per mode")
	flag.IntVar(&o.fuzzSeeds, "fuzz-seeds", 4, "fuzz: seeds per mode")
	flag.DurationVar(&o.fuzzTime, "fuzz-time", 0, "fuzz: stop starting new seeds after this long (0 = no cap)")
	flag.StringVar(&o.telemetry, "telemetry-addr", "", "serve /metrics, /statusz, /epochz, /tracez and pprof on this address (single child and dist coordinator; empty = off)")
	flag.Parse()
	if o.dir == "" && !o.fuzz {
		fmt.Fprintln(os.Stderr, "supervise: -dir is required")
		os.Exit(2)
	}
	var err error
	switch {
	case o.child && o.role == "coord":
		err = runChildCoord(o)
	case o.child && o.role == "follow":
		err = runChildFollow(o)
	case o.child:
		err = runChild(o)
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

// serveTelemetry attaches a telemetry sink to the plan and starts the
// introspection server when -telemetry-addr is set; the returned closer is
// a no-op otherwise. The control-plane tracer is switched on: supervised
// runs are demos and debugging sessions, where /tracez earning its keep
// beats the (bounded, off-hot-path) recording cost.
func serveTelemetry(o options, role string, b *plan.Builder) (func(), error) {
	if o.telemetry == "" {
		return func() {}, nil
	}
	t := telemetry.New()
	t.Tracer.SetEnabled(true)
	b.EnableTelemetry(t)
	srv, err := telemetry.Serve(o.telemetry, t)
	if err != nil {
		return nil, err
	}
	logEvent("TELEMETRY serving", "addr", srv.Addr(), "role", role, "seed", o.chaosSeed, "incarnation", o.chaosInc)
	return func() { srv.Close() }, nil
}

// backoff is the supervisor's restart pacing: exponential on consecutive
// crashing restarts (so a child that dies on startup cannot burn
// max-restarts in milliseconds), reset once a child ran long enough to have
// made progress.
type backoff struct {
	base, cur time.Duration
}

// healthyRun is how long a child must survive for its crash to count as
// fresh (resetting the backoff) rather than part of a crash loop.
const healthyRun = 2 * time.Second

func newBackoff(base time.Duration) *backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	return &backoff{base: base, cur: base}
}

// wait sleeps before the next restart and advances the schedule; ran is how
// long the crashed incarnation lived.
func (b *backoff) wait(ran time.Duration) {
	if ran >= healthyRun {
		b.cur = b.base
	}
	logEvent("SUPERVISOR backing off before restart", "delay", b.cur)
	time.Sleep(b.cur)
	if b.cur *= 2; b.cur > 5*time.Second {
		b.cur = 5 * time.Second
	}
}

// childArgs assembles the flags shared by every child incarnation.
func (o options) childArgs(role string) []string {
	args := []string{"-child",
		"-dir", o.dir,
		"-interval", o.interval.String(),
		"-retain", fmt.Sprint(o.retain),
		"-parts", fmt.Sprint(o.parts),
		"-minutes", fmt.Sprint(o.minutes),
		"-fuse=" + fmt.Sprint(o.fuse),
	}
	if role != "" {
		args = append(args,
			"-role", role,
			"-addr", o.addr,
			"-ack-timeout", o.ackTimeout.String(),
			"-write-timeout", o.writeTimeout.String(),
			"-read-timeout", o.readTimeout.String(),
		)
	}
	// Incarnation always rides along (it labels the structured logs even
	// without chaos); the schedule seed only when chaos is on.
	args = append(args, "-chaos-incarnation", fmt.Sprint(o.chaosInc))
	if o.chaosSeed != 0 {
		args = append(args, "-chaos-seed", fmt.Sprint(o.chaosSeed))
	}
	// The follower never gets the telemetry address: both halves of the dist
	// pair share one flag set and two listeners on one address would collide.
	if o.telemetry != "" && role != "follow" {
		args = append(args, "-telemetry-addr", o.telemetry)
	}
	return args
}

// runSupervisor restarts a run's children until one incarnation completes.
// A local run has one child, the whole plan under a coordinator with no
// followers; -dist adds the follower child — the pair is a coordinator child
// (producer subplan, manifest commits) and a follower child (consumer
// subplan, result digest) joined over -addr. When any child dies with an
// error the others are killed — half a plan cannot complete alone — and the
// run restarts from the newest committed cut.
func runSupervisor(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	roles := []string{""}
	if o.dist {
		roles = []string{"coord", "follow"}
		if o.addr == "" {
			if o.addr, err = freeLoopbackAddr(); err != nil {
				return err
			}
		}
	}
	restarts := 0
	bo := newBackoff(o.backoff)
	for {
		o.chaosInc = restarts
		children := make([]*exec.Cmd, 0, len(roles))
		done := make(chan error, len(roles)) // one send per started child
		killAll := func() {
			for _, c := range children {
				c.Process.Signal(syscall.SIGKILL)
			}
		}
		start := time.Now()
		for i, role := range roles {
			args := o.childArgs(role)
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
		bo.wait(ran)
	}
}

// freeLoopbackAddr reserves a loopback port by binding and releasing it;
// the children re-bind it. The window between release and re-bind is racy
// in principle but safe against ourselves.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// openChain opens the chain under dir on the Dir backend, with chaos faults,
// if any, wrapped around it: an injected write failure fails that one Put,
// exactly like a dying disk, and abandons the epoch it hits.
func openChain(dir string, faults []chaos.Fault) (*snapshot.Chain, error) {
	d, err := snapshot.NewDir(dir)
	if err != nil {
		return nil, err
	}
	return snapshot.NewChain(chaos.WrapBackend(d, faults)), nil
}

// armKills starts one watcher per kill fault: once the process's durable
// progress reaches the fault's epoch threshold, wait the fault's delay
// (which varies the phase of the next epoch the kill lands in) and SIGKILL
// — a genuine kill -9, nothing is flushed or unwound.
func armKills(kills []chaos.Fault, progress func() (int64, bool)) {
	for _, f := range kills {
		go func(f chaos.Fault) {
			for {
				time.Sleep(5 * time.Millisecond)
				if v, ok := progress(); ok && v >= f.Epoch {
					time.Sleep(f.Delay)
					logEvent("CHILD self-destructing (kill -9)", "fault", f, "progress", v)
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
			}
		}(f)
	}
}

// logSkips reports restore degradation: epochs whose stored snapshot or
// manifest was corrupt and were skipped in favor of an older intact cut.
func logSkips(who string, skipped []snapshot.Fallback) {
	for _, sk := range skipped {
		logEvent(who+" restore degraded: skipped corrupt epoch", "epoch", sk.Epoch, "err", sk.Err)
	}
}

// coordRole is what tells a coordinating child's log lines and fault
// schedule apart: the single-process child and the producer half of the
// -dist pair run the same code (runCoordinator).
type coordRole struct {
	tag      string // log-line prefix; lower-cased, the role= field
	part     string // chaos target and chain subdirectory ("" = the run's -dir itself)
	restored string // the restore log line CI greps for
}

var (
	roleChild = coordRole{tag: "CHILD", restored: "CHILD restored from epoch"}
	roleCoord = coordRole{tag: "COORD", part: "coord", restored: "COORD restored from committed epoch"}
)

// runChild runs one single-process incarnation: the whole plan under a
// checkpoint coordinator that has no followers.
func runChild(o options) error {
	b, sink := buildPlan(o)
	if err := runCoordinator(o, roleChild, b); err != nil {
		return err
	}
	fmt.Println(digestLine(sink))
	return nil
}

// runChildCoord runs the producer half: traffic source → filter → remote
// sink, as the distributed checkpoint coordinator. It listens on -addr for
// the follower's control and data connections.
func runChildCoord(o options) error {
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	defer l.Close()
	conns, err := acceptTagged(l, tagControl, tagData)
	if err != nil {
		return err
	}
	cp := o.chaosPlan()
	ctrl := chaos.WrapConn(conns[0], cp.ConnFaults("coord", o.chaosInc, chaos.TargetCtrl))
	data := chaos.WrapConn(conns[1], cp.ConnFaults("coord", o.chaosInc, chaos.TargetData))
	defer ctrl.Close()
	b, _ := buildCoordPlan(o, data)
	return runCoordinator(o, roleCoord, b, ctrl)
}

// runCoordinator runs one incarnation of a plan that owns its sources:
// restore the newest committed cut, admit a follower per control
// connection, then run under periodic checkpoints.
func runCoordinator(o options, r coordRole, b *plan.Builder, followers ...net.Conn) error {
	role := strings.ToLower(r.tag)
	cp := o.chaosPlan()
	// Chain and manifest writes run off the stream: snapshots on the
	// checkpoint's phase-2 finisher, manifests on the checkpoint loop.
	chain, err := openChain(filepath.Join(o.dir, r.part), cp.ChainFaults(r.part, o.chaosInc))
	if err != nil {
		return err
	}
	log := snapshot.NewDistLog(chain.Backend())

	stopTel, err := serveTelemetry(o, role, b)
	if err != nil {
		return err
	}
	defer stopTel()

	dc, err := b.DistCoordinate(role, chain, log)
	if err != nil {
		return err
	}
	dc.AckTimeout = o.ackTimeout
	restored, err := dc.RestoreCommitted()
	if err != nil {
		return err
	}
	logSkips(r.tag, dc.Degraded())
	if restored {
		logEvent(fmt.Sprintf("%s %d", r.restored, dc.CommittedEpoch()),
			"role", role, "seed", o.chaosSeed, "incarnation", o.chaosInc, "epoch", dc.CommittedEpoch())
	} else {
		logEvent(r.tag+" cold start", "role", role, "seed", o.chaosSeed, "incarnation", o.chaosInc)
	}
	for _, ctrl := range followers {
		part, err := dc.AddFollower(ctrl)
		if err != nil {
			return err
		}
		logEvent(r.tag+" follower joined", "part", part, "role", role)
	}

	commitProgress := func() (int64, bool) {
		m, ok, err := log.Latest()
		if err != nil || !ok {
			return 0, false
		}
		return m.Epoch, true
	}
	kills := cp.Kills(r.part, o.chaosInc)
	if o.crashAfter > 0 {
		kills = append(kills, chaos.Fault{Kind: chaos.FaultKill, Target: chaos.TargetProcess,
			Part: r.part, Incarnation: o.chaosInc, Epoch: int64(o.crashAfter)})
	}
	armKills(kills, commitProgress)

	runErr, chkErr := dc.RunCheckpointed(policyOf(o))
	if runErr != nil {
		return runErr
	}
	if chkErr != nil {
		// Abandoned epochs are expected around a crash or an injected fault
		// (a failed write abandons the epoch it hits) and never touch the
		// results.
		logEvent(r.tag+" checkpoint maintenance", "role", role, "err", chkErr)
	}
	logEvent(r.tag+" done", "role", role, "seed", o.chaosSeed,
		"incarnation", o.chaosInc, "committed", dc.CommittedEpoch())
	return nil
}

func policyOf(o options) execpkg.CheckpointPolicy {
	return execpkg.CheckpointPolicy{Interval: o.interval, Retain: o.retain}
}

// Connection tags: the follower dials the coordinator twice on one port and
// labels each connection with its purpose.
const (
	tagControl = 'C'
	tagData    = 'D'
)

// runChildFollow runs the consumer half: remote source → partitioned
// aggregate → recording sink, as a distributed checkpoint follower. It
// dials the coordinator's -addr for control and data.
func runChildFollow(o options) error {
	cp := o.chaosPlan()
	chain, err := openChain(filepath.Join(o.dir, "follow"), cp.ChainFaults("follow", o.chaosInc))
	if err != nil {
		return err
	}

	ctrl, err := dialTagged(o.addr, tagControl)
	if err != nil {
		return err
	}
	ctrl = chaos.WrapConn(ctrl, cp.ConnFaults("follow", o.chaosInc, chaos.TargetCtrl))
	defer ctrl.Close()
	data, err := dialTagged(o.addr, tagData)
	if err != nil {
		return err
	}
	data = chaos.WrapConn(data, cp.ConnFaults("follow", o.chaosInc, chaos.TargetData))

	b, sink := buildFollowPlan(o, data)

	df, err := b.DistFollow("follow", chain, ctrl)
	if err != nil {
		return err
	}
	df.Retain = o.retain
	restored, err := df.Handshake()
	if err != nil {
		return err
	}
	if restored {
		logEvent(fmt.Sprintf("FOLLOW restored from committed epoch %d", df.CommittedEpoch()),
			"role", "follow", "seed", o.chaosSeed, "incarnation", o.chaosInc, "epoch", df.CommittedEpoch())
	} else {
		logEvent("FOLLOW cold start", "role", "follow", "seed", o.chaosSeed, "incarnation", o.chaosInc)
	}
	armKills(cp.Kills("follow", o.chaosInc), func() (int64, bool) {
		ep, ok, err := chain.LatestEpoch()
		return ep, err == nil && ok
	})
	if err := df.Run(); err != nil {
		return err
	}
	fmt.Println(digestLine(sink))
	return nil
}

// acceptTagged accepts one connection per expected tag byte, in any order.
func acceptTagged(l net.Listener, tags ...byte) ([]net.Conn, error) {
	out := make([]net.Conn, len(tags))
	for range tags {
		conn, err := l.Accept()
		if err != nil {
			return nil, err
		}
		var tag [1]byte
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(tag[:]); err != nil {
			return nil, fmt.Errorf("read connection tag: %w", err)
		}
		conn.SetReadDeadline(time.Time{})
		placed := false
		for i, want := range tags {
			if tag[0] == want && out[i] == nil {
				out[i] = conn
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("unexpected connection tag %q", tag[0])
		}
	}
	return out, nil
}

// dialTagged dials addr with retry (the peer may still be restarting) and
// sends the tag byte identifying the connection's purpose.
func dialTagged(addr string, tag byte) (net.Conn, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			if _, werr := conn.Write([]byte{tag}); werr != nil {
				conn.Close()
				return nil, werr
			}
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// trafficSource builds the deterministic synthetic workload shared by all
// modes.
func trafficSource(o options) *gen.TrafficSource {
	const minute = int64(60_000_000)
	return &gen.TrafficSource{Config: gen.TrafficConfig{
		Segments:            6,
		DetectorsPerSegment: 10,
		Duration:            int64(o.minutes) * minute,
		NullRate:            0.1,
		Noise:               3,
		Seed:                42,
		// Cost paces ingest (~500µs/tuple) so the run spans seconds and
		// checkpoints land mid-stream instead of after a millisecond blast.
		Cost: work.UnitsFor(500 * time.Microsecond),
	}}
}

// preStage prepends the stateless normalization chain shared by every mode:
// a keep-everything filter (ts is never null and never negative) plus a
// carry-all rename. It is a semantic no-op whose purpose is giving the plan
// compiler a fusible stateless prefix on the hot path; with -fuse the two
// operators become one clean+norm kernel — a prefix on the exchange Split's
// input port wherever the chain feeds a Parallel stage (buildPlan,
// buildFollowPlan), a standalone fused(clean+norm) node in buildCoordPlan,
// where the chain feeds the remote sink — so both compiled forms are
// exercised by every fuzz run.
func preStage(s plan.Stream) plan.Stream {
	s = s.SelectExpr("clean", punct.ExprStep{Col: 2, Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))})
	outs := make([]op.MapAttr, gen.TrafficSchema.Arity())
	for i := range outs {
		outs[i] = op.Carry(gen.TrafficSchema.Field(i).Name)
	}
	return s.Map("norm", outs...)
}

// aggStage is the per-partition aggregate sub-plan shared by the
// single-process plan and the distributed follower (and by the fuzz
// verifier, which must rebuild byte-identical plans to restore into). The
// leading keep-all filter is another semantic no-op: a lone stateless
// operator inside each partition, which -fuse absorbs into that partition's
// aggregate as a prefix kernel (fused(pclean=>agg)) — so every chaos run
// drives the prefixed batched-fold path through kills, restores, and
// feedback.
func aggStage() func(plan.Stream) plan.Stream {
	const minute = int64(60_000_000)
	return func(ss plan.Stream) plan.Stream {
		ss = ss.SelectExpr("pclean", punct.ExprStep{Col: 2, Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))})
		return ss.Through(&op.Aggregate{OpName: "agg", In: gen.TrafficSchema, Kind: core.AggAvg,
			TsAttr: 2, ValAttr: 3, GroupBy: []int{0}, Window: window.Tumbling(minute),
			ValueName: "avg_speed", Mode: op.FeedbackExploit, Propagate: true})
	}
}

// buildPlan assembles the single-process demo workload: deterministic
// synthetic traffic → Parallel(parts) per-segment average → recording sink.
// Every node is a snapshot.Stater, so the whole plan recovers.
func buildPlan(o options) (*plan.Builder, *execpkg.Collector) {
	b := plan.New()
	out := preStage(b.Source(trafficSource(o))).Parallel("part", o.parts, []string{"segment"}, aggStage())
	sink := execpkg.NewCollector("sink", out.Schema())
	out.Into(sink)
	if o.fuse {
		b.Compile()
	}
	return b, sink
}

// buildCoordPlan assembles the producer subplan of the distributed pair:
// traffic source → filter → remote sink framing onto data.
func buildCoordPlan(o options, data net.Conn) (*plan.Builder, *remote.Sink) {
	b := plan.New()
	out := preStage(b.Source(trafficSource(o)))
	rsink := out.IntoRemote("to-consumer", data)
	rsink.WriteTimeout = o.writeTimeout
	if o.fuse {
		b.Compile()
	}
	return b, rsink
}

// buildFollowPlan assembles the consumer subplan: remote source →
// partitioned aggregate → recording sink. The source's read deadline
// surfaces a wedged producer instead of hanging the subplan forever.
func buildFollowPlan(o options, data net.Conn) (*plan.Builder, *execpkg.Collector) {
	b := plan.New()
	src := remote.NewSource("from-producer", gen.TrafficSchema, data)
	src.ReadTimeout = o.readTimeout
	out := preStage(b.Source(src)).Parallel("part", o.parts, []string{"segment"}, aggStage())
	sink := out.Collect("sink")
	if o.fuse {
		b.Compile()
	}
	return b, sink
}

// canonicalDigest hashes the order-independent result set, the equality
// witness between crashed-and-recovered and uninterrupted runs.
func canonicalDigest(sink *execpkg.Collector) (int, uint32) {
	lines := []string{}
	for _, t := range sink.Tuples() {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	h := fnv.New32a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return len(lines), h.Sum32()
}

// digestLine renders the RESULTS line — single-sourced so the fuzz
// verifier's replays compare byte-identically against run output.
func digestLine(sink *execpkg.Collector) string {
	count, sum := canonicalDigest(sink)
	return fmt.Sprintf("RESULTS count=%d checksum=%08x", count, sum)
}
