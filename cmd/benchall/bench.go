package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/work"
)

// benchResult is one benchmark measurement in BENCH_pipeline.json.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	TuplesPerOp int     `json:"tuples_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// benchRun is one labelled measurement set.
type benchRun struct {
	Label   string                 `json:"label"`
	Date    string                 `json:"date"`
	Results map[string]benchResult `json:"results"`
}

// benchFile mirrors BENCH_pipeline.json.
type benchFile struct {
	Description string                 `json:"description"`
	Seed        map[string]benchResult `json:"seed"`
	Runs        []benchRun             `json:"runs"`
}

// writeBenchJSON measures the pipeline hot path in-process (the same
// source→select→sink plan as BenchmarkAblationPageSize, 100k tuples per
// run) and appends a labelled run to the baseline file, creating it if
// missing. It also prints the speedup against the recorded seed.
func writeBenchJSON(path, label string, fuse bool) error {
	var f benchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("benchall: parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	const n = 100_000
	results := map[string]benchResult{}
	for _, ps := range []int{1, 8, 64, 512} {
		name := fmt.Sprintf("BenchmarkAblationPageSize/page=%d", ps)
		ns := measurePipeline(ps, n)
		results[name] = benchResult{NsPerOp: ns, TuplesPerOp: n}
		base := ""
		if s, ok := f.Seed[name]; ok && ns > 0 {
			base = fmt.Sprintf("  (%.2fx vs seed)", s.NsPerOp/ns)
		}
		fmt.Printf("%-42s %12.0f ns/op%s\n", name, ns, base)
	}

	// Plan compiler: the stateless hot path select→project→map with and
	// without operator fusion (Builder.Compile). The fused kernel must beat
	// the unfused twin ≥2× (ISSUE 7's acceptance bar).
	variants := []bool{true, false}
	if !fuse {
		variants = []bool{false}
	}
	fusedNs := map[bool]float64{}
	for _, fused := range variants {
		name := fmt.Sprintf("BenchmarkFusedPipeline/fused=%v", fused)
		ns := measureFusedPipeline(fused, false, n)
		fusedNs[fused] = ns
		results[name] = benchResult{NsPerOp: ns, TuplesPerOp: n}
		fmt.Printf("%-42s %12.0f ns/op\n", name, ns)
	}
	if fusedNs[true] > 0 {
		fmt.Printf("%-42s %12.2fx (≥ 2x wanted)\n", "fusion speedup over unfused twin", fusedNs[false]/fusedNs[true])
	}

	// Plan compiler stage 2: the select+project→GROUP BY pipeline with and
	// without compilation. Compiled, the stateless prefix is absorbed into
	// the aggregate's input port and survivors take the batched fold; the
	// bar is ≥1.3× over an unfused twin that already folds whole pages per
	// call (ISSUE 9's acceptance bar).
	fusedAggNs := map[bool]float64{}
	for _, fused := range variants {
		name := fmt.Sprintf("BenchmarkFusedAggregate/fused=%v", fused)
		ns := measureFusedAggregate(fused, n)
		fusedAggNs[fused] = ns
		results[name] = benchResult{NsPerOp: ns, TuplesPerOp: n}
		fmt.Printf("%-42s %12.0f ns/op\n", name, ns)
	}
	if fusedAggNs[true] > 0 {
		fmt.Printf("%-42s %12.2fx (≥ 1.3x wanted)\n", "stage-2 speedup over unfused twin", fusedAggNs[false]/fusedAggNs[true])
	}

	// Telemetry overhead: the compiled pipeline with a live metrics registry
	// attached against the bare twin (ISSUE 8's acceptance bar: within 5%;
	// counters batch at page granularity, so the delta should sit in the
	// noise floor).
	telNs := map[bool]float64{}
	for _, on := range []bool{true, false} {
		name := fmt.Sprintf("BenchmarkInstrumentedPipeline/telemetry=%v", on)
		ns := measureFusedPipeline(true, on, n)
		telNs[on] = ns
		results[name] = benchResult{NsPerOp: ns, TuplesPerOp: n}
		fmt.Printf("%-42s %12.0f ns/op\n", name, ns)
	}
	if telNs[false] > 0 {
		fmt.Printf("%-42s %+12.2f%% (within 5%% wanted)\n", "telemetry overhead over bare twin",
			100*(telNs[true]-telNs[false])/telNs[false])
	}

	// The aggregate's fold alone, per tuple (BenchmarkAggregateFold's
	// shapes): every fold a hit, every fold a new group with the window
	// emitted and dropped every 8192, and the same between delta captures.
	for _, shape := range experiments.FoldShapes {
		name := "BenchmarkAggregateFold/" + shape
		ns, err := measureAggregateFold(shape)
		if err != nil {
			return err
		}
		results[name] = benchResult{NsPerOp: ns}
		fmt.Printf("%-42s %12.1f ns/op\n", name, ns)
	}

	// Partitioned-aggregate scaling: pipeline with Aggregate parallelized
	// at n=1,2,4,8 (per-tuple cost makes it compute-bound; the curve
	// tracks available cores).
	const scaleTuples = 50_000
	items := experiments.ParallelTrafficItems(scaleTuples)
	cost := work.UnitsFor(time.Microsecond)
	baseline := float64(0)
	for _, parts := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("BenchmarkParallelAggregate/n=%d", parts)
		ns := measureParallelAggregate(parts, items, cost)
		results[name] = benchResult{NsPerOp: ns, TuplesPerOp: scaleTuples}
		note := ""
		if parts == 1 {
			baseline = ns
		} else if baseline > 0 && ns > 0 {
			note = fmt.Sprintf("  (%.2fx vs n=1)", baseline/ns)
		}
		fmt.Printf("%-42s %12.0f ns/op%s\n", name, ns, note)
	}

	// Checkpoint overhead and crash-recovery time on the Parallel(4)
	// aggregate plan (same workload as BenchmarkCheckpoint/BenchmarkRecovery
	// in bench_test.go).
	ckptNs, recNs, err := measureRecovery(4, scaleTuples)
	if err != nil {
		return err
	}
	results["BenchmarkCheckpoint"] = benchResult{NsPerOp: ckptNs}
	results["BenchmarkRecovery"] = benchResult{NsPerOp: recNs, TuplesPerOp: scaleTuples / 10}
	fmt.Printf("%-42s %12.0f ns/op\n", "BenchmarkCheckpoint", ckptNs)
	fmt.Printf("%-42s %12.0f ns/op\n", "BenchmarkRecovery", recNs)

	// Distributed cut latency: one epoch across a loopback TCP edge —
	// barrier over the wire, follower cut + persist, ack, manifest commit.
	remoteNs, err := measureRemoteBarrier()
	if err != nil {
		return err
	}
	results["BenchmarkRemoteBarrier"] = benchResult{NsPerOp: remoteNs}
	fmt.Printf("%-42s %12.0f ns/op\n", "BenchmarkRemoteBarrier", remoteNs)

	// Two-phase snapshot scaling: full end-to-end checkpoint cost grows
	// with state, the barrier-hold of incremental checkpoints must not
	// (ISSUE 4's acceptance bar: flat within 2× across 100× state).
	var holdAt [3]float64
	for i, groups := range []int{2_000, 20_000, 200_000} {
		fullNs, holdNs, err := measureLargeState(groups)
		if err != nil {
			return err
		}
		holdAt[i] = holdNs
		fn := fmt.Sprintf("BenchmarkCheckpointLargeState/state=%d", groups)
		hn := fmt.Sprintf("BenchmarkBarrierHold/state=%d", groups)
		results[fn] = benchResult{NsPerOp: fullNs}
		results[hn] = benchResult{NsPerOp: holdNs}
		fmt.Printf("%-42s %12.0f ns/op\n", fn, fullNs)
		fmt.Printf("%-42s %12.0f ns/op\n", hn, holdNs)
	}
	if holdAt[0] > 0 {
		fmt.Printf("%-42s %12.2fx (flat ≤ 2x wanted)\n", "barrier-hold growth over 100x state", holdAt[2]/holdAt[0])
	}

	f.Runs = append(f.Runs, benchRun{
		Label:   label,
		Date:    time.Now().UTC().Format("2006-01-02"),
		Results: results,
	})
	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// measurePipeline times one source→select→sink run over n tuples at the
// given page size and returns the best-of-3 wall time in nanoseconds.
func measurePipeline(pageSize, n int) float64 {
	schema := gen.TrafficSchema
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.NewTuple(
			stream.Int(int64(i%9)), stream.Int(int64(i%40)),
			stream.TimeMicros(int64(i)*1000), stream.Float(55),
		)
	}
	best := float64(0)
	for rep := 0; rep < 3; rep++ {
		src := exec.NewSliceSource("src", schema, tuples...)
		src.BatchSize = 256
		sel := &op.Select{Schema: schema}
		sink := exec.NewCollector("sink", schema)
		sink.Discard = true
		g := exec.NewGraph()
		g.SetQueueOptions(queue.Options{PageSize: pageSize, FlushOnPunct: true})
		s := g.AddSource(src)
		fl := g.Add(sel, exec.From(s))
		g.Add(sink, exec.From(fl))
		start := time.Now()
		if err := g.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "benchall: pipeline run:", err)
			os.Exit(1)
		}
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// measureFusedPipeline times the stateless hot path source → select →
// project → map → sink over n tuples (progress punctuation every 50, as in
// BenchmarkFusedPipeline), optionally compiled with Builder.Compile and
// optionally attached to one long-lived telemetry sink (as deployed), and
// returns the best-of-3 wall time in nanoseconds.
func measureFusedPipeline(fused, instrumented bool, n int) float64 {
	schema := gen.TrafficSchema
	items := make([]queue.Item, 0, n+n/50)
	for i := 0; i < n; i++ {
		items = append(items, queue.TupleItem(stream.NewTuple(
			stream.Int(int64(i%9)), stream.Int(int64(i%40)),
			stream.TimeMicros(int64(i)*1000), stream.Float(float64(20+i%80)))))
		if i%50 == 49 {
			items = append(items, queue.PunctItem(punct.NewEmbedded(
				punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(int64(i)*1000))))))
		}
	}
	keep := make([]string, schema.Arity())
	outs := make([]op.MapAttr, schema.Arity())
	for i := range keep {
		keep[i] = schema.Field(i).Name
		outs[i] = op.Carry(keep[i])
	}
	var tel *telemetry.Telemetry
	if instrumented {
		tel = telemetry.New()
	}
	best := float64(0)
	for rep := 0; rep < 3; rep++ {
		bld := plan.New()
		src := &exec.SliceSource{SourceName: "src", Schema: schema, Items: items, BatchSize: 256}
		out := bld.Source(src).
			SelectExpr("hot", op.ExprStep{Col: 3, Name: "speed", Pred: punct.Ge(stream.Float(10))}).
			Project("keep", keep...).
			Map("norm", outs...)
		sink := exec.NewCollector("sink", out.Schema())
		sink.Discard = true
		out.Into(sink)
		if fused {
			bld.Compile()
		}
		if tel != nil {
			bld.EnableTelemetry(tel)
		}
		start := time.Now()
		if err := bld.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "benchall: fused pipeline run:", err)
			os.Exit(1)
		}
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// measureFusedAggregate times the stateful hot path source → select →
// project → GROUP BY aggregate → sink over n tuples (progress punctuation
// every 50, as in BenchmarkFusedAggregate), optionally compiled, and
// returns the best-of-3 wall time in nanoseconds.
func measureFusedAggregate(fused bool, n int) float64 {
	const minute = int64(60_000_000)
	schema := gen.TrafficSchema
	items := make([]queue.Item, 0, n+n/50)
	for i := 0; i < n; i++ {
		items = append(items, queue.TupleItem(stream.NewTuple(
			stream.Int(int64(i%9)), stream.Int(int64(i%40)),
			stream.TimeMicros(int64(i)*1000), stream.Float(float64(20+i%80)))))
		if i%50 == 49 {
			items = append(items, queue.PunctItem(punct.NewEmbedded(
				punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(int64(i)*1000))))))
		}
	}
	best := float64(0)
	for rep := 0; rep < 3; rep++ {
		bld := plan.New()
		src := &exec.SliceSource{SourceName: "src", Schema: schema, Items: items, BatchSize: 256}
		out := bld.Source(src).
			SelectExpr("hot", op.ExprStep{Col: 3, Name: "speed", Pred: punct.Ge(stream.Float(10))}).
			Project("keep", "segment", "detector", "ts", "speed").
			Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"}, window.Tumbling(minute), "avgspeed")
		sink := exec.NewCollector("sink", out.Schema())
		sink.Discard = true
		out.Into(sink)
		if fused {
			bld.Compile()
		}
		start := time.Now()
		if err := bld.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "benchall: fused aggregate run:", err)
			os.Exit(1)
		}
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// measureAggregateFold folds 2^20 tuples of the given shape into a fresh
// aggregate (experiments.NewFoldBench, the loop BenchmarkAggregateFold
// times) and returns the best-of-3 time per tuple in nanoseconds.
func measureAggregateFold(shape string) (float64, error) {
	const n = 1 << 20
	best := float64(0)
	for rep := 0; rep < 3; rep++ {
		f, err := experiments.NewFoldBench(shape)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := f.Fold(n); err != nil {
			return 0, err
		}
		ns := float64(time.Since(start).Nanoseconds()) / n
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// measureRecovery starts the parked Parallel(n) aggregate plan once, takes
// several checkpoints (best-of), then kills the plan and measures
// crash-and-recover (restore + catch-up replay of the last 10%) from the
// final snapshot.
func measureRecovery(parts, tuples int) (ckptNs, recNs float64, err error) {
	rb, err := experiments.StartRecoveryBench(parts, tuples, 0)
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	var snap *snapshot.Snapshot
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		s, err := rb.Checkpoint(ctx)
		if err != nil {
			rb.Stop()
			return 0, 0, err
		}
		ns := float64(time.Since(start).Nanoseconds())
		if ckptNs == 0 || ns < ckptNs {
			ckptNs = ns
		}
		snap = s
	}
	if err := rb.Stop(); err != nil {
		return 0, 0, err
	}
	// Best-of-7: recovery is dominated by catch-up replay (~1ms), where
	// best-of-3 on a shared CI runner has produced >1.5x outliers that read
	// as regressions. Interleaved A/B of the underlying benchmark across
	// commits shows parity, so widen the sample instead of chasing ghosts.
	for rep := 0; rep < 7; rep++ {
		start := time.Now()
		if err := rb.Recover(snap); err != nil {
			return 0, 0, err
		}
		ns := float64(time.Since(start).Nanoseconds())
		if recNs == 0 || ns < recNs {
			recNs = ns
		}
	}
	return ckptNs, recNs, nil
}

// measureRemoteBarrier starts the parked coordinator/follower pair over
// loopback TCP and measures one distributed checkpoint epoch end to end
// (best-of-10, mixed full/delta as under the supervise cadence).
func measureRemoteBarrier() (float64, error) {
	db, err := experiments.StartDistBench(50_000)
	if err != nil {
		return 0, err
	}
	defer db.Stop()
	best := float64(0)
	for rep := 0; rep < 10; rep++ {
		start := time.Now()
		if _, err := db.Checkpoint(); err != nil {
			return 0, err
		}
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// measureLargeState starts the parked single-aggregate plan with the given
// group count and measures (a) a full checkpoint end-to-end and (b) the
// barrier-hold of incremental checkpoints with 512 touched groups per cut
// (both best-of-5).
func measureLargeState(groups int) (fullNs, holdNs float64, err error) {
	lb, err := experiments.StartLargeStateBench(groups)
	if err != nil {
		return 0, 0, err
	}
	defer lb.Stop()
	ctx := context.Background()
	for rep := 0; rep < 5; rep++ {
		lb.Touch(512)
		start := time.Now()
		if _, err := lb.Checkpoint(ctx, snapshot.CaptureFull); err != nil {
			return 0, 0, err
		}
		ns := float64(time.Since(start).Nanoseconds())
		if fullNs == 0 || ns < fullNs {
			fullNs = ns
		}
	}
	for rep := 0; rep < 5; rep++ {
		lb.Touch(512)
		st, err := lb.Checkpoint(ctx, snapshot.CaptureDelta)
		if err != nil {
			return 0, 0, err
		}
		ns := float64(st.BarrierHold.Nanoseconds())
		if holdNs == 0 || ns < holdNs {
			holdNs = ns
		}
	}
	return fullNs, holdNs, nil
}

// measureParallelAggregate times one n-way partitioned aggregate plan
// (experiments.RunParallelAggregate — the same plan the go-test benchmark
// runs) and returns the best-of-3 wall time in nanoseconds.
func measureParallelAggregate(parts int, items []queue.Item, cost int) float64 {
	best := float64(0)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if err := experiments.RunParallelAggregate(parts, items, cost); err != nil {
			fmt.Fprintln(os.Stderr, "benchall: parallel aggregate run:", err)
			os.Exit(1)
		}
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}
