package plan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fuse"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/window"
)

// feedbackSink records every arrival and sends fbs upstream one at a time,
// one after every `every` tuples. What it recorded is read after Run.
//
//pace:stateless test sink; each run starts from scratch, restore is never exercised
type feedbackSink struct {
	exec.Base
	schema stream.Schema
	every  int
	fbs    []core.Feedback
	got    []stream.Tuple
}

func (s *feedbackSink) Name() string                { return "feedback-sink" }
func (s *feedbackSink) InSchemas() []stream.Schema  { return []stream.Schema{s.schema} }
func (s *feedbackSink) OutSchemas() []stream.Schema { return nil }

func (s *feedbackSink) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	s.got = append(s.got, t.Clone())
	if sent := len(s.got)/s.every - 1; len(s.got)%s.every == 0 && sent < len(s.fbs) {
		ctx.SendFeedback(0, s.fbs[sent])
	}
	return nil
}

// TestPipelineDefinition1EndToEnd runs source → select → aggregate → sink
// feedback-unaware and feedback-aware, compiled and not, and checks
// Definition 1 on the final output of each aware run against the unaware one.
func TestPipelineDefinition1EndToEnd(t *testing.T) {
	const minute = int64(60_000_000)
	var input []stream.Tuple
	for i := 0; i < 5000; i++ {
		input = append(input, reading(int64(i%5), int64(i)*50_000, 40+float64(i%30)))
	}
	// Feedback over the aggregate's output schema: ignore segment 2.
	fb := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(2))))

	run := func(mode op.FeedbackMode, compile bool) []stream.Tuple {
		src := testSource("src", input...)
		src.Mode = mode
		src.BatchSize = 16
		b := New()
		b.Mode, b.Propagate = mode, mode != op.FeedbackIgnore
		// No punctuation: every window closes at end of stream, so the
		// output is deterministic.
		out := b.Source(src).
			Select("nonneg", func(t stream.Tuple) bool { return t.At(2).AsFloat() >= 0 }).
			Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"}, window.Tumbling(minute), "avg_speed")
		sink := &feedbackSink{schema: out.Schema(), every: 3, fbs: []core.Feedback{fb}}
		out.Into(sink)
		if compile {
			b.Compile()
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		return sink.got
	}
	ref := run(op.FeedbackIgnore, false)
	for _, compile := range []bool{false, true} {
		if err := core.CheckExploitation(ref, run(op.FeedbackExploit, compile), fb).Err(); err != nil {
			t.Fatalf("compile=%v: end-to-end Definition 1 violated: %v", compile, err)
		}
	}
}

// TestConcurrentFeedbackStress hammers a pipeline with frequent feedback
// while the stream flows, under -race in CI, verifying liveness and the
// upper Definition 1 bound (no invented tuples), compiled and not.
func TestConcurrentFeedbackStress(t *testing.T) {
	const n, segments = 20000, 7
	var input []stream.Tuple
	for i := 0; i < n; i++ {
		input = append(input, reading(int64(i%segments), int64(i)*1000, float64(i%90)))
	}
	// A feedback storm: every 100 tuples, ignore another of segments 0..4.
	var storm []core.Feedback
	for seg := int64(0); seg < 5; seg++ {
		storm = append(storm, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(seg)))))
	}
	for _, compile := range []bool{false, true} {
		src := testSource("src", input...)
		src.Mode, src.BatchSize = core.ModeExploit, 4
		b := New()
		b.Graph().SetQueueOptions(queue.Options{PageSize: 8, Depth: 2})
		sink := &feedbackSink{schema: testSchema, every: 100, fbs: storm}
		b.Source(src).Select("all", nil).Map("carry", carryAll(testSchema)...).Into(sink)
		if compile {
			b.Compile()
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		// Segments 5 and 6 were never suppressed: all of them must arrive.
		counts := map[int64]int{}
		for _, tp := range sink.got {
			counts[tp.At(0).AsInt()]++
		}
		if counts[5] != n/segments || counts[6] != n/segments {
			t.Errorf("compile=%v: unsuppressed segments must be complete: %v", compile, counts)
		}
	}
}

// TestPrefixedAggregateReleasesItsOutputGuard (§4.4): compiled or not, the
// aggregate's own output punctuation releases the guards a consumer's
// feedback installed — the runtime folds every punctuation a node emits into
// its responder, and a prefixed node's is its inner operator's.
func TestPrefixedAggregateReleasesItsOutputGuard(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		name := map[bool]string{false: "uncompiled", true: "compiled"}[compiled]
		t.Run(name, func(t *testing.T) {
			b := New()
			out := b.Source(&exec.SliceSource{SourceName: "src", Schema: testSchema, Items: aggWorkload(2500), BatchSize: 64}).
				SelectExpr("nonneg", punct.ExprStep{Col: 2, Name: "speed", Pred: punct.Ge(stream.Float(0))}).
				Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"}, window.Tumbling(1_000_000), "avg_speed")
			// Window 0 is of no further use: asserted after its first result,
			// covered by the punctuation that closes window 1.
			first := core.NewAssumed(punct.OnAttr(3, out.Schema().Index("wstart"), punct.Le(stream.TimeMicros(0))))
			out.Into(&feedbackSink{schema: out.Schema(), every: 1, fbs: []core.Feedback{first}})
			if compiled {
				b.Compile()
			}
			var agg *op.Aggregate
			prefixed := false
			for id := 0; id < b.Graph().NumNodes(); id++ {
				o := b.Graph().OperatorAt(exec.NodeID(id))
				if p, ok := o.(*fuse.Prefixed); ok {
					o, prefixed = p.Inner(), true
				}
				if a, ok := o.(*op.Aggregate); ok {
					agg = a
				}
			}
			if agg == nil || prefixed != compiled {
				t.Fatalf("plan is not the one under test:\n%s", b.Explain())
			}
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			if agg.Exploited() != 1 {
				t.Fatalf("aggregate exploited %d feedbacks, want 1", agg.Exploited())
			}
			for i, table := range agg.Tables() {
				if n := table.Active(); n != 0 {
					t.Errorf("table %d holds %d guards its own output punctuation covers", i, n)
				}
			}
		})
	}
}
