package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fuse"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// workload is one benchmark workload: its generated input, its plan, its
// reference, and the sizes and rate its three phases run at. Sizes are tuple
// counts and the rate is a constant — nothing here adapts to the machine or
// to the run, so that two runs do the same work.
type workload struct {
	name  string
	input func(seed uint64) *input
	// drain1p and drainNp are the tuples per drain pass, about 0.5 s of work
	// on the 2-core container the bounds were measured on.
	drain1p, drainNp int64
	// The paced phase sends pacedTuples at rate tuples/s in bursts of burst
	// tuples. rate is about 40% of drain_1p throughput measured when the
	// benchmark landed. A result later than limit counts as failed: about
	// 100× the p90 measured then, and above the 40–60 ms freezes the measured
	// container shows, so that only a plan that stops keeping up fails.
	rate        float64
	burst       int64
	pacedTuples int64
	limit       time.Duration
	// ckptEvery > 0 checkpoints the plan every that many tuples.
	ckptEvery int64
	// feedback marks the plan whose sink issues feedback.
	feedback bool
	// probe1p and probeNp are the probe's cost over this workload's input, in
	// ns per tuple at GOMAXPROCS=1 and at GOMAXPROCS=nproc, as measured when
	// the benchmark landed: the nominal host speed calibrated times refer to.
	probe1p, probeNp float64

	// build assembles a fresh plan around src for one pass.
	build func(w *workload, src *source, p pass) (*rig, error)
	// reference computes what a pass over the first n tuples must produce;
	// the value is handed back to rig.check.
	reference func(in *input, n int64) any
	// prefix returns the operator doing the plan's stateless per-tuple work,
	// for the ladder: its fused kernel, its lone filter, or nil.
	prefix func() (exec.Operator, error)
	// keep is that prefix's predicate on speed; window and the two costs
	// (work units per fold and per result) describe the plan's aggregate.
	keep               func(stream.Value) bool
	window             int64
	foldCost, emitCost int
}

// pass says how one run of a plan is driven.
type pass struct {
	n   int64
	clk *clock               // paced when set
	tel *telemetry.Telemetry // attached when set (traced runs only)
	// compiled, when set, receives the time Builder.Compile took.
	compiled *time.Duration
}

// compile runs the plan compiler, timing it for a traced run.
func (p pass) compile(b *plan.Builder) {
	start := time.Now()
	b.Compile()
	if p.compiled != nil {
		*p.compiled = time.Since(start)
	}
}

// outcome is what a finished pass is judged by.
type outcome struct {
	attempted, failed int64
	results           int64       // results the sink received
	lat               []latSample // paced results, timed
	latStride         int64       // results per latency sample

	// Checkpointed plans: epochs committed, and how many the pass configured.
	epochs, epochsWanted int64
	// The speed map: the feedback its viewer issued and the last period it
	// announced, tuples guards suppressed, and cells that arrived although
	// the feedback describes them.
	issued            []core.Feedback
	announced         int64
	suppressed, leaks int64
}

// rig is one assembled pass: run drives it to completion, check compares its
// output with the reference, close releases what build opened.
type rig struct {
	run    func() error
	check  func(ref any) outcome
	close  func()
	graphs []*exec.Graph
}

const (
	// groupWindow is groupby_parallel's tumbling window, in stream time
	// (= tuples): eight punctuation blocks.
	groupWindow = 8 * punctEvery
	// remoteWindow is remote_checkpointed's window. Over 50 000 uniform keys
	// nearly every tuple opens a group of its own, so each window's state is
	// about one group per tuple — the hash-probe and snapshot load the
	// workload is there for.
	remoteWindow = 16 * punctEvery
)

// averagesReference is the reference of a plan that ends in a windowed AVG.
func averagesReference(window int64, keep func(stream.Value) bool) func(*input, int64) any {
	return func(in *input, n int64) any { return averagesDigest(windowAverages(in, n, window, keep), window) }
}

var workloads = []*workload{
	{
		name: "stateless_fused", probe1p: 59.5, probeNp: 58.5, input: uniformInput, build: buildStateless,
		drain1p: 2_500_000, drainNp: 2_500_000,
		rate: 2_000_000, burst: 16 * punctEvery, pacedTuples: 12_000_000, limit: 250 * time.Millisecond,
		reference: func(in *input, n int64) any { return statelessReference(in, n) },
		prefix:    func() (exec.Operator, error) { return fuse.New(statelessOps()) },
		keep:      keepFast, window: groupWindow,
	},
	{
		name: "groupby_parallel", probe1p: 63, probeNp: 60, input: zipfLateInput, build: buildGroupBy,
		drain1p: 2_250_000, drainNp: 2_750_000,
		rate: 1_800_000, burst: 16 * punctEvery, pacedTuples: 10_800_000, limit: 250 * time.Millisecond,
		reference: averagesReference(groupWindow, keepFast),
		prefix:    func() (exec.Operator, error) { return fuse.New(groupPrefixOps()) },
		keep:      keepFast, window: groupWindow,
	},
	{
		name: "speedmap_feedback", probe1p: 344, probeNp: 360, input: func(seed uint64) *input { return trafficInput(seed, mapIngestCost) },
		build: buildSpeedmap, feedback: true,
		drain1p: 900_000, drainNp: 1_300_000,
		rate: 750_000, burst: 9 * mapRound, pacedTuples: 4_500_000, limit: 250 * time.Millisecond,
		reference: func(in *input, n int64) any { return windowAverages(in, n, mapWindowUS, keepQuality) },
		prefix:    func() (exec.Operator, error) { return qualityOp(), nil },
		keep:      keepQuality, window: mapWindowUS, foldCost: mapFoldCost, emitCost: mapEmitCost,
	},
	{
		name: "remote_checkpointed", probe1p: 61.5, probeNp: 55.5, input: wideKeyInput, build: buildRemote,
		drain1p: 170_000, drainNp: 225_000,
		rate: 125_000, burst: punctEvery, pacedTuples: 750_000, limit: time.Second,
		ckptEvery: 40_000,
		reference: averagesReference(remoteWindow, keepAll),
		keep:      keepAll, window: remoteWindow,
	},
}

func (w *workload) probeNominal(procs int) float64 {
	if procs == 1 {
		return w.probe1p
	}
	return w.probeNp
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The stateless operators, built as plan.New() would (feedback exploited and
// propagated) but by hand, so that the ladder times the very operators the
// plans run.

func hotSelect() *op.Select {
	// The column index is a constant in range: NewExpr cannot fail.
	expr, _ := op.NewExpr(inSchema.Arity(), op.ExprStep{Col: colSpeed, Name: "speed", Pred: punct.Ge(stream.Float(keepSpeed))})
	return &op.Select{OpName: "hot", Schema: inSchema, Expr: expr, Mode: op.FeedbackExploit, Propagate: true}
}

func keepProject(cols ...string) *op.Project {
	return &op.Project{OpName: "keep", In: inSchema, Keep: cols, Mode: op.FeedbackExploit, Propagate: true}
}

// statelessOps is stateless_fused's chain: select (keeps 7/8) → project
// (drops detector) → map (speed to km/h).
func statelessOps() []exec.Operator {
	keep := keepProject("segment", "ts", "speed")
	kph := &op.Map{OpName: "kph", In: keep.OutSchemas()[0], Mode: op.FeedbackExploit, Propagate: true,
		Outs: []op.MapAttr{op.Carry("segment"), op.Carry("ts"),
			op.Compute("kph", stream.KindFloat, func(t stream.Tuple) stream.Value { return stream.Float(t.At(2).F * kphPerMph) })}}
	return []exec.Operator{hotSelect(), keep, kph}
}

// groupPrefixOps is groupby_parallel's prefix: select → identity project.
func groupPrefixOps() []exec.Operator {
	return []exec.Operator{hotSelect(), keepProject("segment", "detector", "ts", "speed")}
}

func through(s plan.Stream, ops []exec.Operator) plan.Stream {
	for _, o := range ops {
		s = s.Through(o)
	}
	return s
}

func newSink(schema stream.Schema, p pass, closeAt, stride int64) *sink {
	s := &sink{name: "sink", schema: schema, clk: p.clk, closeAt: closeAt, stride: stride}
	if p.clk != nil {
		s.lat = make([]latSample, 0, 1<<21)
	}
	return s
}

// localRig wraps a single-process plan.
func localRig(b *plan.Builder, p pass, check func(ref any) outcome) (*rig, error) {
	if p.tel != nil {
		b.EnableTelemetry(p.tel)
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	return &rig{run: b.Run, check: check, close: func() {}, graphs: []*exec.Graph{b.Graph()}}, nil
}

// buildStateless: source → select (keeps 7/8) → project → map → sink,
// compiled into one fused kernel.
func buildStateless(w *workload, src *source, p pass) (*rig, error) {
	b := plan.New()
	out := through(b.Source(src), statelessOps())
	snk := newSink(out.Schema(), p, 0, 64)
	out.Into(snk)
	p.compile(b)
	return localRig(b, p, func(ref any) outcome {
		att, failed := checkDigest(snk.got, ref.(digest))
		return outcome{attempted: att, failed: failed, results: snk.got.count, lat: snk.lat, latStride: snk.stride}
	})
}

func averageOp(name string, win int64) *op.Aggregate {
	return &op.Aggregate{
		OpName: name, In: inSchema, Kind: core.AggAvg,
		TsAttr: colTs, ValAttr: colSpeed, GroupBy: []int{colSegment},
		Window: window.Tumbling(win), ValueName: "avg_speed",
		Mode: op.FeedbackExploit, Propagate: true,
	}
}

// buildGroupBy: source → select+project prefix → Parallel(2) tumbling AVG by
// segment → merge → sink, compiled (the prefix is absorbed into the split).
func buildGroupBy(w *workload, src *source, p pass) (*rig, error) {
	b := plan.New()
	out := through(b.Source(src), groupPrefixOps()).
		Parallel("part", 2, []string{"segment"}, func(ss plan.Stream) plan.Stream {
			return ss.Through(averageOp("avg", groupWindow))
		})
	snk := newSink(out.Schema(), p, groupWindow-1, 1)
	out.Into(snk)
	p.compile(b)
	return localRig(b, p, func(ref any) outcome {
		att, failed := checkDigest(snk.got, ref.(digest))
		return outcome{attempted: att, failed: failed, results: snk.got.count, lat: snk.lat, latStride: snk.stride}
	})
}

// Stage costs of the speed map, in work units: one tenth of
// experiments.SpeedmapConfig's defaults (200/100/140 per tuple, and a
// per-result cost equal to a window's worth of per-tuple cost), so the work
// feedback avoids and the engine's own overhead are of the same order.
const (
	mapIngestCost = 20
	mapFilterCost = 10
	mapFoldCost   = 14
	mapEmitCost   = 3 * mapDetectors * (mapIngestCost + mapFilterCost + mapFoldCost)
)

// qualityOp is the speed map's σ-quality filter.
func qualityOp() *op.Select {
	return &op.Select{
		OpName: "sigma-quality", Schema: inSchema,
		Cond: func(t stream.Tuple) bool { return keepQuality(t.At(colSpeed)) },
		Cost: mapFilterCost, Mode: op.FeedbackExploit,
	}
}

// buildSpeedmap: the paper's Figure 4(b) plan under scheme F3 — σ-quality →
// AVERAGE → map viewer, the viewer's feedback exploited by AVERAGE and
// propagated to σ-quality.
func buildSpeedmap(w *workload, src *source, p pass) (*rig, error) {
	quality := qualityOp()
	avg := averageOp("average", mapWindowUS)
	avg.Cost, avg.EmitCost = mapFoldCost, mapEmitCost
	view := &viewer{schema: avg.OutSchemas()[0], clk: p.clk}
	b := plan.New()
	b.Source(src).Through(quality).Through(avg).Into(view)
	return localRig(b, p, func(ref any) outcome {
		att, failed, leaked := checkMap(view.cells, view.announced, ref.(map[groupKey]float64))
		_, _, filterSup := quality.Stats()
		return outcome{attempted: att, failed: failed, results: int64(len(view.cells)), lat: view.lat, latStride: 1,
			issued: view.issued, announced: view.announced, suppressed: filterSup + avg.Stats().InSuppressed, leaks: leaked}
	})
}

// buildRemote: coordinator (source → remote sink) over loopback TCP →
// follower (remote source → Parallel(2) AVG over 50 000 segments → sink),
// with a distributed checkpoint every w.ckptEvery tuples of the source —
// every fourth full, the rest deltas, into memory backends.
func buildRemote(w *workload, src *source, p pass) (*rig, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	type accepted struct {
		conn net.Conn
		err  error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		conn, err := l.Accept()
		l.Close()
		acceptCh <- accepted{conn, err}
	}()
	dataOut, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		<-acceptCh
		return nil, err
	}
	acc := <-acceptCh
	if acc.err != nil {
		dataOut.Close()
		return nil, acc.err
	}
	ctrlA, ctrlB := net.Pipe()
	closeAll := func() {
		dataOut.Close()
		acc.conn.Close()
		ctrlA.Close()
		ctrlB.Close()
	}

	fb := plan.New()
	out := fb.RemoteSource("from-producer", inSchema, acc.conn).
		Parallel("part", 2, []string{"segment"}, func(ss plan.Stream) plan.Stream {
			return ss.Through(averageOp("avg", remoteWindow))
		})
	snk := newSink(out.Schema(), p, remoteWindow-1, 4)
	out.Into(snk)
	df, err := fb.DistFollow("consumer", snapshot.NewChain(snapshot.NewMemory()), ctrlB)
	if err != nil {
		closeAll()
		return nil, err
	}

	cb := plan.New()
	cb.Source(src).IntoRemote("to-consumer", dataOut)
	backend := snapshot.NewMemory()
	dc, err := cb.DistCoordinate("producer", snapshot.NewChain(backend), snapshot.NewDistLog(backend))
	if err != nil {
		closeAll()
		return nil, err
	}
	dc.AckTimeout = 30 * time.Second
	if _, err := dc.RestoreCommitted(); err != nil {
		closeAll()
		return nil, err
	}
	handshake := make(chan error, 1)
	go func() {
		_, err := df.Handshake()
		handshake <- err
	}()
	_, err = dc.AddFollower(ctrlA)
	if herr := <-handshake; err == nil {
		err = herr
	}
	if err != nil {
		closeAll()
		return nil, err
	}
	if p.tel != nil {
		cb.EnableTelemetry(p.tel)
		fb.EnableTelemetry(telemetry.New())
	}

	want := (p.n - 1) / w.ckptEvery
	src.ckptEvery = w.ckptEvery
	src.ckptReq = make(chan int64, want+1)
	var committed int64
	var ckptErr error
	run := func() error {
		var wg sync.WaitGroup
		var coordErr, followErr error
		wg.Add(3)
		go func() {
			defer wg.Done()
			coordErr = cb.Graph().Run()
			close(src.ckptReq)
		}()
		go func() { defer wg.Done(); followErr = df.Run() }()
		go func() {
			defer wg.Done()
			k := 0
			for range src.ckptReq {
				mode := snapshot.CaptureDelta
				if k%4 == 0 {
					mode = snapshot.CaptureFull
				}
				k++
				if _, err := dc.CheckpointOnce(mode); err != nil {
					// Release the source if the epoch never cut it.
					if src.cuts.Load() < int64(k) {
						src.cuts.Store(int64(k))
					}
					ckptErr = errors.Join(ckptErr, err)
					continue
				}
				committed++
			}
		}()
		wg.Wait()
		cb.Graph().WaitCheckpoints()
		return errors.Join(coordErr, followErr)
	}
	check := func(ref any) outcome {
		att, failed := checkDigest(snk.got, ref.(digest))
		if ckptErr != nil {
			fmt.Printf("  checkpoint error: %v\n", ckptErr)
		}
		// An epoch that did not commit is an operation that failed.
		att, failed = att+want, failed+want-committed
		return outcome{attempted: att, failed: failed, results: snk.got.count, lat: snk.lat, latStride: snk.stride,
			epochs: committed, epochsWanted: want}
	}
	return &rig{run: run, check: check, close: closeAll, graphs: []*exec.Graph{cb.Graph(), fb.Graph()}}, nil
}
