package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus ablations of the design choices called out in
// DESIGN.md §7. Shapes to expect (not absolute numbers):
//
//	Figure5/Figure6 — useless-imputed-fraction drops from ≥0.65 to ≤0.60
//	                  when feedback is enabled (paper: 0.97 → 0.29);
//	Figure7         — F1 ≈ half of F0, F2 and F3 below F1, flat across
//	                  feedback frequencies;
//	Table1/Table2   — characterization rows enact and verify in
//	                  microseconds (feedback handling is cheap).

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/fuse"
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

// ---------------------------------------------------------------------------
// Tables 1 and 2.
// ---------------------------------------------------------------------------

func BenchmarkTable1CountCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.CountTable() {
			if !r.Verified {
				b.Fatalf("row %s failed Definition 1", r.Punctuation)
			}
		}
	}
}

func BenchmarkTable2JoinCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.JoinTable() {
			if !r.Verified {
				b.Fatalf("row %s failed Definition 1", r.Punctuation)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 5 and 6 (Experiment 1).
// ---------------------------------------------------------------------------

func benchImputation(b *testing.B, feedback bool, maxUseless, minUseless float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunImputation(experiments.ImputationConfig{
			Tuples: 2000, Rate: 4000, Feedback: feedback,
		})
		if err != nil {
			b.Fatal(err)
		}
		u := res.UselessFraction()
		if u < minUseless || u > maxUseless {
			b.Logf("warning: useless fraction %.2f outside expected [%.2f, %.2f] (wall-clock noise)",
				u, minUseless, maxUseless)
		}
		b.ReportMetric(100*u, "%useless")
	}
}

func BenchmarkFigure5ImputationNoFeedback(b *testing.B) {
	benchImputation(b, false, 1.0, 0.60)
}

func BenchmarkFigure6ImputationWithFeedback(b *testing.B) {
	benchImputation(b, true, 0.65, 0.0)
}

// ---------------------------------------------------------------------------
// Figure 7 (Experiment 2).
// ---------------------------------------------------------------------------

func BenchmarkFigure7Speedmap(b *testing.B) {
	for _, scheme := range []experiments.Scheme{experiments.F0, experiments.F1, experiments.F2, experiments.F3} {
		for _, freq := range []int{2, 4, 6} {
			b.Run(fmt.Sprintf("%v/switch=%dmin", scheme, freq), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := experiments.RunSpeedmap(experiments.SpeedmapConfig{
						Scheme:             scheme,
						SwitchEveryMinutes: freq,
						Hours:              1,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.WorkUnits)/1e6, "Mwork")
					b.ReportMetric(float64(res.Results), "results")
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 1(b): the motivating speed-map plan with adaptive feedback.
// ---------------------------------------------------------------------------

func BenchmarkFigure1bSpeedmapPlan(b *testing.B) {
	for _, feedback := range []bool{false, true} {
		b.Run(fmt.Sprintf("feedback=%v", feedback), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFigure1b(feedback, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.MapRows)), "rows")
				b.ReportMetric(float64(res.CleanerSkipped+res.AggFoldsSkipped+res.ProbesSkipped), "saved")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §7).
// ---------------------------------------------------------------------------

// pipelineThroughput pushes n tuples through source → select → sink under
// the given queue options and reports tuples/op.
func pipelineThroughput(b *testing.B, opts queue.Options, n int) {
	b.Helper()
	schema := gen.TrafficSchema
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.NewTuple(
			stream.Int(int64(i%9)), stream.Int(int64(i%40)),
			stream.TimeMicros(int64(i)*1000), stream.Float(55),
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := exec.NewSliceSource("src", schema, tuples...)
		src.BatchSize = 256
		sel := &op.Select{Schema: schema}
		sink := exec.NewCollector("sink", schema)
		sink.Discard = true
		g := exec.NewGraph()
		g.SetQueueOptions(opts)
		s := g.AddSource(src)
		f := g.Add(sel, exec.From(s))
		g.Add(sink, exec.From(f))
		if err := g.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "tuples/op")
}

func BenchmarkAblationPageSize(b *testing.B) {
	for _, ps := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("page=%d", ps), func(b *testing.B) {
			pipelineThroughput(b, queue.Options{PageSize: ps, FlushOnPunct: true}, 100_000)
		})
	}
}

func BenchmarkAblationPunctFlush(b *testing.B) {
	// Punctuation-dense stream: the flush-on-punct policy trades batching
	// for progress latency.
	schema := gen.TrafficSchema
	var items []queue.Item
	for i := 0; i < 50_000; i++ {
		items = append(items, queue.TupleItem(stream.NewTuple(
			stream.Int(int64(i%9)), stream.Int(0),
			stream.TimeMicros(int64(i)*1000), stream.Float(55))))
		if i%10 == 9 {
			items = append(items, queue.PunctItem(punct.NewEmbedded(
				punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(int64(i)*1000))))))
		}
	}
	for _, flush := range []bool{true, false} {
		b.Run(fmt.Sprintf("flushOnPunct=%v", flush), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := &exec.SliceSource{SourceName: "src", Schema: schema, Items: items, BatchSize: 256}
				sink := exec.NewCollector("sink", schema)
				sink.Discard = true
				g := exec.NewGraph()
				g.SetQueueOptions(queue.Options{PageSize: 64, FlushOnPunct: flush})
				s := g.AddSource(src)
				g.Add(sink, exec.From(s))
				if err := g.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGuardLadder compares the F-scheme exploitation depths on
// the aggregate alone (no wall-clock noise: deterministic work counters).
func BenchmarkAblationGuardLadder(b *testing.B) {
	for _, mode := range []op.FeedbackMode{op.FeedbackIgnore, op.FeedbackGuardOutput, op.FeedbackExploit} {
		b.Run(mode.String(), func(b *testing.B) {
			const minute = int64(60_000_000)
			fb := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3))))
			for i := 0; i < b.N; i++ {
				a := &op.Aggregate{
					In: gen.TrafficSchema, Kind: core.AggAvg,
					TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
					Window: window.Tumbling(minute), Mode: mode,
				}
				h := exec.NewHarness(a)
				h.Feedback(0, fb)
				for j := 0; j < 10_000; j++ {
					h.Tuple(0, stream.NewTuple(
						stream.Int(int64(j%9)), stream.Int(0),
						stream.TimeMicros(int64(j)*10_000), stream.Float(55)))
					if j%1000 == 999 {
						h.Punct(0, punct.NewEmbedded(punct.OnAttr(4, 2,
							punct.Le(stream.TimeMicros(int64(j)*10_000)))))
					}
				}
				h.EOS(0)
				if h.Err() != nil {
					b.Fatal(h.Err())
				}
			}
		})
	}
}

// BenchmarkAblationFeedbackFrequency measures raw feedback-handling cost:
// the paper reports "no discernible overhead" as frequency rises.
func BenchmarkAblationFeedbackFrequency(b *testing.B) {
	for _, every := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("feedbackEvery=%d", every), func(b *testing.B) {
			sel := &op.Select{Schema: gen.TrafficSchema, Mode: op.FeedbackExploit}
			h := exec.NewHarness(sel)
			t := stream.NewTuple(stream.Int(1), stream.Int(1), stream.TimeMicros(0), stream.Float(55))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%every == 0 {
					h.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2,
						punct.Lt(stream.TimeMicros(int64(i))))))
				}
				tt := t
				tt.Values = append([]stream.Value(nil), t.Values...)
				tt.Values[2] = stream.TimeMicros(int64(i + 1))
				h.Tuple(0, tt)
				if i%4096 == 0 {
					h.Reset() // keep the recorded output bounded
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core machinery.
// ---------------------------------------------------------------------------

func BenchmarkPatternMatch(b *testing.B) {
	p := punct.NewPattern(
		punct.Eq(stream.Int(3)),
		punct.Wild,
		punct.Le(stream.TimeMicros(1_000_000)),
		punct.Ge(stream.Float(50)),
	)
	t := stream.NewTuple(stream.Int(3), stream.Int(7), stream.TimeMicros(500_000), stream.Float(60))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Matches(t) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkPatternMatchCompiled(b *testing.B) {
	p := punct.NewPattern(
		punct.Eq(stream.Int(3)),
		punct.Wild,
		punct.Le(stream.TimeMicros(1_000_000)),
		punct.Ge(stream.Float(50)),
	).Compile(stream.Schema{})
	t := stream.NewTuple(stream.Int(3), stream.Int(7), stream.TimeMicros(500_000), stream.Float(60))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Matches(t) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkGuardTableSuppress(b *testing.B) {
	g := core.NewGuardTable(4)
	for i := 0; i < 8; i++ {
		g.Install(core.NewAssumed(punct.OnAttr(4, 0, punct.Eq(stream.Int(int64(100+i))))))
	}
	t := stream.NewTuple(stream.Int(3), stream.Int(7), stream.TimeMicros(500_000), stream.Float(60))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g.Suppress(t) {
			b.Fatal("must not suppress")
		}
	}
}

// BenchmarkAggregateFold times the aggregate's fold alone, per tuple, on the
// shapes experiments.NewFoldBench describes: hot (nine groups, every fold a
// hit; 0 allocs/op, pinned by TestAggregateFoldZeroAlloc), insert (a new
// group per tuple, the window emitted and dropped every 8192) and
// insert-tracked (the same between delta captures).
func BenchmarkAggregateFold(b *testing.B) {
	for _, shape := range experiments.FoldShapes {
		b.Run(shape, func(b *testing.B) {
			f, err := experiments.NewFoldBench(shape)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := f.Fold(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkJoinProbe(b *testing.B) {
	j := &op.Join{
		Left:     gen.ProbeSchema,
		Right:    gen.ProbeSchema,
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
		LeftTs: 1, RightTs: 1,
	}
	h := exec.NewHarness(j)
	// Preload right side with 1000 entries.
	for i := 0; i < 1000; i++ {
		h.Tuple(1, stream.NewTuple(stream.Int(int64(i)), stream.TimeMicros(0), stream.Float(50)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Tuple(0, stream.NewTuple(stream.Int(int64(i%1000)), stream.TimeMicros(0), stream.Float(60)))
		if i%4096 == 0 {
			h.Reset()
		}
	}
}

// ---------------------------------------------------------------------------
// Plan compiler: operator fusion (DESIGN.md §10).
// ---------------------------------------------------------------------------

// runFusedPipeline builds the stateless hot path source → select → project
// → map → sink, optionally compiled (Builder.Compile fuses the three
// stateless stages into one flat kernel) and optionally attached to a
// telemetry sink (nil = uninstrumented), and runs it to completion.
func runFusedPipeline(b *testing.B, items []queue.Item, fused bool, tel *telemetry.Telemetry) {
	b.Helper()
	bld := plan.New()
	src := &exec.SliceSource{SourceName: "src", Schema: gen.TrafficSchema, Items: items, BatchSize: 256}
	keep := make([]string, gen.TrafficSchema.Arity())
	outs := make([]op.MapAttr, gen.TrafficSchema.Arity())
	for i := range keep {
		keep[i] = gen.TrafficSchema.Field(i).Name
		outs[i] = op.Carry(keep[i])
	}
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
	if err := bld.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFusedPipeline is the plan compiler's acceptance benchmark: the
// same stateless chain with and without Builder.Compile. The fused variant
// runs select+project+map as one flat kernel — two queue hops instead of
// four, no intermediate emits — and must beat the unfused twin ≥2×.
func BenchmarkFusedPipeline(b *testing.B) {
	// Punctuated stream, like every workload in this engine: a progress
	// punctuation on ts every 50 tuples. Unfused, each punctuation crosses
	// four queue edges (flushing the page at each, per FlushOnPunct) and is
	// re-projected by every stateless op; fused it crosses two and is
	// relayed by one kernel pass.
	const n = 100_000
	items := pipelineItems(n)
	for _, fused := range []bool{true, false} {
		b.Run(fmt.Sprintf("fused=%v", fused), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runFusedPipeline(b, items, fused, nil)
			}
			b.ReportMetric(n, "tuples/op")
		})
	}
}

// pipelineItems builds the shared punctuated benchmark stream: n tuples
// with a progress punctuation on ts every 50.
func pipelineItems(n int) []queue.Item {
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
	return items
}

// runFusedAggregate pushes the punctuated stream through source → select →
// project → GROUP BY aggregate → sink, optionally compiled. Compiled, the
// select+project chain first fuses into one kernel (stage 1) and is then
// absorbed into the aggregate's input port as a prefix kernel (stage 2):
// survivors fold through Aggregate.ApplyTupleBatch with no queue edge in
// between.
func runFusedAggregate(b *testing.B, items []queue.Item, fused bool) {
	b.Helper()
	const minute = int64(60_000_000)
	bld := plan.New()
	src := &exec.SliceSource{SourceName: "src", Schema: gen.TrafficSchema, Items: items, BatchSize: 256}
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
	if err := bld.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFusedAggregate is the stage-2 acceptance benchmark: the same
// select+project→GROUP BY pipeline with and without Builder.Compile. The
// fused variant must beat the unfused twin ≥1.3× — the honest bar against a
// baseline that already takes the batched fold (ProcessTupleBatch) on its
// own node.
func BenchmarkFusedAggregate(b *testing.B) {
	const n = 100_000
	items := pipelineItems(n)
	for _, fused := range []bool{true, false} {
		b.Run(fmt.Sprintf("fused=%v", fused), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runFusedAggregate(b, items, fused)
			}
			b.ReportMetric(n, "tuples/op")
		})
	}
}

// BenchmarkInstrumentedPipeline is the telemetry acceptance benchmark: the
// compiled hot-path pipeline with a metrics registry attached
// (telemetry=true) against the bare twin. The counters batch at page
// granularity (exec/runner.go flushPageStats), so the instrumented variant
// must stay within 5% of uninstrumented.
func BenchmarkInstrumentedPipeline(b *testing.B) {
	const n = 100_000
	items := pipelineItems(n)
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("telemetry=%v", on), func(b *testing.B) {
			// One long-lived sink outside the timed loop, as deployed: the
			// measured delta is the steady-state counter cost, not the
			// one-time ring allocation of telemetry.New.
			var tel *telemetry.Telemetry
			if on {
				tel = telemetry.New()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runFusedPipeline(b, items, true, tel)
			}
			b.ReportMetric(n, "tuples/op")
		})
	}
}

// noopCtx discards everything: direct kernel measurement with no queue in
// sight.
type noopCtx struct{}

func (noopCtx) Emit(stream.Tuple)               {}
func (noopCtx) EmitTo(int, stream.Tuple)        {}
func (noopCtx) EmitPunct(punct.Embedded)        {}
func (noopCtx) EmitPunctTo(int, punct.Embedded) {}
func (noopCtx) SendFeedback(int, core.Feedback) {}
func (noopCtx) ShutdownUpstream(int)            {}
func (noopCtx) NumInputs() int                  { return 1 }
func (noopCtx) NumOutputs() int                 { return 1 }
func (noopCtx) Logf(string, ...any)             {}

// BenchmarkFusedKernel measures the kernel alone, on the two shapes its
// allocation pins cover (internal/fuse): identity — select + carry-all
// project + carry-all map, one ProcessTuple per op, 0 allocs/op — and mapping
// — select + project dropping a column + map computing one, driven by
// 64-tuple runs as the runtime drives it, one slab allocation per run
// (reported per tuple: 1/64 allocs/op).
func BenchmarkFusedKernel(b *testing.B) {
	schema := gen.TrafficSchema
	expr, err := op.NewExpr(schema.Arity(),
		op.ExprStep{Col: 0, Name: "segment", Pred: punct.Le(stream.Int(1000))},
		op.ExprStep{Col: 3, Name: "speed", Pred: punct.Ge(stream.Float(10))})
	if err != nil {
		b.Fatal(err)
	}
	hot := func() *op.Select {
		return &op.Select{OpName: "hot", Schema: schema, Expr: expr, Mode: op.FeedbackExploit}
	}
	open := func(b *testing.B, ops ...exec.Operator) *fuse.Fused {
		fused, err := fuse.New(ops)
		if err != nil {
			b.Fatal(err)
		}
		if err := fused.Open(noopCtx{}); err != nil {
			b.Fatal(err)
		}
		return fused
	}
	t := stream.NewTuple(stream.Int(3), stream.Int(7), stream.TimeMicros(500_000), stream.Float(60))

	b.Run("identity", func(b *testing.B) {
		keep := make([]string, schema.Arity())
		outs := make([]op.MapAttr, schema.Arity())
		for i := range keep {
			keep[i] = schema.Field(i).Name
			outs[i] = op.Carry(keep[i])
		}
		fused := open(b, hot(),
			&op.Project{OpName: "keep", In: schema, Keep: keep},
			&op.Map{OpName: "norm", In: schema, Outs: outs})
		ctx := noopCtx{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fused.ProcessTuple(0, t, ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("mapping", func(b *testing.B) {
		keep := &op.Project{OpName: "keep", In: schema, Keep: []string{"segment", "ts", "speed"}}
		fused := open(b, hot(), keep,
			&op.Map{OpName: "kph", In: keep.OutSchemas()[0], Outs: []op.MapAttr{
				op.Carry("segment"), op.Carry("ts"),
				op.Compute("kph", stream.KindFloat, func(t stream.Tuple) stream.Value { return stream.Float(t.At(2).F * 1.609344) }),
			}})
		run := make([]queue.Item, 64)
		for i := range run {
			run[i] = queue.TupleItem(t)
		}
		ctx := noopCtx{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(run) {
			if err := fused.ProcessTupleBatch(0, run, ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Partitioned parallel execution (exchange operators).
// ---------------------------------------------------------------------------

// BenchmarkParallelAggregate measures the scaling of a partitioned
// aggregate: source → split(segment) → n × aggregate → merge → sink. The
// per-tuple Cost makes the aggregate compute-bound so the speedup tracks
// cores (flat on a single-core host).
func BenchmarkParallelAggregate(b *testing.B) {
	items := experiments.ParallelTrafficItems(50_000)
	cost := work.UnitsFor(time.Microsecond)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.RunParallelAggregate(n, items, cost); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(50_000, "tuples/op")
		})
	}
}

// BenchmarkMergeAlign measures the punctuation-alignment steady state: a
// lagging partition pins the merged frontier, so arrivals from the others
// probe coverage and emit nothing. The acceptance bar is 0 allocs/op
// (also pinned by TestMergeAlignmentZeroAlloc).
func BenchmarkMergeAlign(b *testing.B) {
	m := &op.Merge{Schema: gen.TrafficSchema, K: 4, Mode: op.FeedbackExploit}
	h := exec.NewHarness(m)
	mk := func(us int64) punct.Embedded {
		return punct.NewEmbedded(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(us))))
	}
	for i := 0; i < 4; i++ {
		h.Punct(i, mk(100))
	}
	if h.Err() != nil {
		b.Fatal(h.Err())
	}
	probes := []punct.Embedded{mk(5000), mk(6000), mk(7000)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ProcessPunct(i%3, probes[i%3], h); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Checkpoint & recovery (internal/snapshot).
// ---------------------------------------------------------------------------

// BenchmarkCheckpoint measures the end-to-end latency of one
// punctuation-aligned checkpoint of a running Parallel(4) aggregate plan:
// barrier injection at the source, alignment across the exchange, state
// serialization at every Stater, and the coordinator's final assembly.
func BenchmarkCheckpoint(b *testing.B) {
	rb, err := experiments.StartRecoveryBench(4, 50_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer rb.Stop()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rb.Checkpoint(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteBarrier measures the end-to-end latency of one
// distributed checkpoint epoch across a loopback TCP edge: barrier
// injection at the producer, the wire crossing, the consumer subplan's
// aligned cut and local persist, the ack over the control connection, and
// the coordinator's manifest commit.
func BenchmarkRemoteBarrier(b *testing.B) {
	db, err := experiments.StartDistBench(50_000)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointLargeState measures the end-to-end latency of one
// full checkpoint (capture + background encode + assembly) as aggregate
// state grows 100×. This is the path whose cost inherently scales with
// state — it exists as the contrast for BenchmarkBarrierHold: the encode
// grows linearly, but it happens off the pipeline.
func BenchmarkCheckpointLargeState(b *testing.B) {
	for _, groups := range []int{2_000, 20_000, 200_000} {
		b.Run(fmt.Sprintf("state=%d", groups), func(b *testing.B) {
			lb, err := experiments.StartLargeStateBench(groups)
			if err != nil {
				b.Fatal(err)
			}
			defer lb.Stop()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lb.Touch(512)
				if _, err := lb.Checkpoint(ctx, snapshot.CaptureFull); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBarrierHold measures the hot-path stall of an incremental
// checkpoint — the longest any node spends in phase-1 capture while the
// barrier holds its stream — as aggregate state grows 100× with a fixed
// write rate (512 touched groups per checkpoint). The acceptance bar
// (ISSUE 4) is that the reported barrier-ns/op stays roughly constant
// (within 2×) across the state sizes, while the one-phase path of PR 3
// scaled linearly; ns/op for the surrounding call is reported too but
// includes background encode wait.
func BenchmarkBarrierHold(b *testing.B) {
	for _, groups := range []int{2_000, 20_000, 200_000} {
		b.Run(fmt.Sprintf("state=%d", groups), func(b *testing.B) {
			lb, err := experiments.StartLargeStateBench(groups)
			if err != nil {
				b.Fatal(err)
			}
			defer lb.Stop()
			ctx := context.Background()
			// Base snapshot: establishes the delta baseline.
			if _, err := lb.Checkpoint(ctx, snapshot.CaptureFull); err != nil {
				b.Fatal(err)
			}
			var hold time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lb.Touch(512)
				st, err := lb.Checkpoint(ctx, snapshot.CaptureDelta)
				if err != nil {
					b.Fatal(err)
				}
				hold += st.BarrierHold
			}
			b.StopTimer()
			b.ReportMetric(float64(hold.Nanoseconds())/float64(b.N), "barrier-ns/op")
		})
	}
}

// BenchmarkRecovery measures crash-and-recover: rebuild the plan, restore
// the snapshot (staging + per-operator LoadState), and replay the last 10%
// of the stream to completion.
func BenchmarkRecovery(b *testing.B) {
	rb, err := experiments.StartRecoveryBench(4, 50_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := rb.Checkpoint(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if err := rb.Stop(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rb.Recover(snap); err != nil {
			b.Fatal(err)
		}
	}
}
