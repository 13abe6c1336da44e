package exec

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

var oneInt = stream.MustSchema(stream.F("v", stream.KindInt))

func intTuple(i int64) stream.Tuple { return stream.NewTuple(stream.Int(i)).WithSeq(i) }

// passthrough is a trivial operator used to exercise the runner.
type passthrough struct {
	Base
	name     string
	feedback []core.Feedback
	relay    bool // relay feedback upstream
}

func (p *passthrough) Name() string                { return p.name }
func (p *passthrough) InSchemas() []stream.Schema  { return []stream.Schema{oneInt} }
func (p *passthrough) OutSchemas() []stream.Schema { return []stream.Schema{oneInt} }
func (p *passthrough) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	ctx.Emit(t)
	return nil
}
func (p *passthrough) ProcessPunct(_ int, e punct.Embedded, ctx Context) error {
	ctx.EmitPunct(e)
	return nil
}
func (p *passthrough) ProcessFeedback(_ int, f core.Feedback, ctx Context) error {
	p.feedback = append(p.feedback, f)
	if p.relay {
		ctx.SendFeedback(0, f)
	}
	return nil
}

func TestGraphRunLinearPipeline(t *testing.T) {
	g := NewGraph()
	src := g.AddSource(NewSliceSource("src", oneInt, intTuple(1), intTuple(2), intTuple(3)))
	mid := g.Add(&passthrough{name: "mid"}, From(src))
	sink := NewCollector("sink", oneInt)
	g.Add(sink, From(mid))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 3 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i, tp := range got {
		if tp.At(0).AsInt() != int64(i+1) {
			t.Errorf("tuple %d: %v", i, tp)
		}
	}
}

// TestGraphEdges checks the edge→consumer map built in prepare (one exact
// consumer per edge, no node rescans), edge labelling, traffic counts, and
// which edges are direct: the sink runs on mid's goroutine, mid on its own.
func TestGraphEdges(t *testing.T) {
	g := NewGraph()
	src := g.AddSource(NewSliceSource("src", oneInt, intTuple(1), intTuple(2)))
	mid := g.Add(&passthrough{name: "mid"}, From(src))
	sink := NewCollector("sink", oneInt)
	g.Add(sink, From(mid))
	g.LabelEdge(From(mid), "part=0/1")
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want 2", len(edges))
	}
	want := map[string]EdgeInfo{
		"src": {Producer: "src", Consumer: "mid"},
		"mid": {Producer: "mid", Consumer: "sink", Label: "part=0/1", Direct: true},
	}
	for _, e := range edges {
		if e.Stats.Tuples != 2 {
			t.Errorf("edge %s -> %s counted %d tuples, want 2", e.Producer, e.Consumer, e.Stats.Tuples)
		}
		e.Stats, e.Depth = queue.Stats{}, 0
		if e != want[e.Producer] {
			t.Errorf("edge %+v, want %+v", e, want[e.Producer])
		}
	}
}

func TestGraphSchemasMustMatch(t *testing.T) {
	two := stream.MustSchema(stream.F("a", stream.KindInt), stream.F("b", stream.KindInt))
	g := NewGraph()
	src := g.AddSource(NewSliceSource("src", oneInt))
	g.Add(NewCollector("sink", two), From(src))
	if err := g.Run(); err == nil {
		t.Fatal("schema mismatch must fail Run")
	}
}

func TestGraphRejectsDoubleConsumption(t *testing.T) {
	g := NewGraph()
	src := g.AddSource(NewSliceSource("src", oneInt))
	g.Add(NewCollector("a", oneInt), From(src))
	g.Add(NewCollector("b", oneInt), From(src))
	if err := g.Run(); err == nil {
		t.Fatal("double consumption must fail")
	}
}

func TestGraphRejectsUnconsumedOutput(t *testing.T) {
	g := NewGraph()
	g.AddSource(NewSliceSource("src", oneInt))
	if err := g.Run(); err == nil {
		t.Fatal("dangling output must fail")
	}
}

func TestGraphRejectsWrongInputCount(t *testing.T) {
	g := NewGraph()
	src := g.AddSource(NewSliceSource("src", oneInt))
	g.Add(&passthrough{name: "p"}, From(src), From(src))
	if err := g.Run(); err == nil {
		t.Fatal("wiring two inputs into a one-input operator must fail")
	}
}

// errorOp fails on the nth tuple to exercise error shutdown.
type errorOp struct {
	passthrough
	failAt int64
	seen   int64
}

func (e *errorOp) ProcessTuple(in int, t stream.Tuple, ctx Context) error {
	e.seen++
	if e.seen == e.failAt {
		return fmt.Errorf("injected failure at tuple %d", e.seen)
	}
	return e.passthrough.ProcessTuple(in, t, ctx)
}

func TestGraphErrorPropagatesAndTerminates(t *testing.T) {
	tuples := make([]stream.Tuple, 10000)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	g := NewGraph()
	src := g.AddSource(NewSliceSource("src", oneInt, tuples...))
	bad := g.Add(&errorOp{passthrough: passthrough{name: "bad"}, failAt: 5}, From(src))
	g.Add(NewCollector("sink", oneInt), From(bad))
	err := g.Run()
	if err == nil {
		t.Fatal("operator error must surface from Run")
	}
}

func TestFeedbackFlowsUpstreamThroughRelay(t *testing.T) {
	// source → relay → pace-like producer (sink that sends feedback).
	tuples := make([]stream.Tuple, 2000)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	src := NewSliceSource("src", oneInt, tuples...)
	src.FeedbackAware = true
	src.BatchSize = 1 // maximize interleaving so feedback can land mid-stream

	relay := &passthrough{name: "relay", relay: true}
	var sank atomic.Int64
	sink := NewCollector("sink", oneInt)
	fbSent := false
	sink.OnTuple = func(t stream.Tuple) { sank.Add(1) }

	g := NewGraph()
	s := g.AddSource(src)
	r := g.Add(relay, From(s))
	g.Add(sink, From(r))
	// Inject feedback from the sink side by wrapping: use a custom
	// operator instead.
	_ = fbSent
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if sank.Load() != 2000 {
		t.Fatalf("sank %d", sank.Load())
	}
}

// feedbackSink emits assumed feedback after receiving trigger tuples.
type feedbackSink struct {
	Base
	name    string
	trigger int64
	seen    int64
	sent    bool
	pattern punct.Pattern
	got     []stream.Tuple
}

func (f *feedbackSink) Name() string                { return f.name }
func (f *feedbackSink) InSchemas() []stream.Schema  { return []stream.Schema{oneInt} }
func (f *feedbackSink) OutSchemas() []stream.Schema { return nil }
func (f *feedbackSink) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	f.seen++
	f.got = append(f.got, t.Clone())
	if !f.sent && f.seen >= f.trigger {
		f.sent = true
		ctx.SendFeedback(0, core.NewAssumed(f.pattern))
	}
	return nil
}

// feedbackGatedSource parks a SliceSource before the tuple at gateAt until
// the source's own ProcessFeedback has run. Both run on the source's runner
// goroutine, which drains control between Next calls, so the parked source
// needs no clock: it yields and is asked again.
type feedbackGatedSource struct {
	*SliceSource
	gateAt int
}

func (s *feedbackGatedSource) Next(ctx Context) (bool, error) {
	if s.pos == s.gateAt && s.Received() == 0 {
		runtime.Gosched()
		return true, nil
	}
	return s.SliceSource.Next(ctx)
}

func TestEndToEndFeedbackSuppressesAtSource(t *testing.T) {
	// The sink asks to ignore v ≥ 1000 after seeing 10 tuples. The source
	// waits before tuple 1000 for that feedback to reach it, so its guard is
	// installed before any v ≥ 1000 is offered: it must skip exactly those.
	const total, gateAt = 5000, 1000
	tuples := make([]stream.Tuple, total)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	src := NewSliceSource("src", oneInt, tuples...)
	src.FeedbackAware = true
	src.BatchSize = 8 // divides gateAt: a Next call ends exactly at the gate
	relay := &passthrough{name: "relay", relay: true}
	sink := &feedbackSink{
		name:    "sink",
		trigger: 10,
		pattern: punct.OnAttr(1, 0, punct.Ge(stream.Int(gateAt))),
	}
	g := NewGraph()
	s := g.AddSource(&feedbackGatedSource{SliceSource: src, gateAt: gateAt})
	r := g.Add(relay, From(s))
	g.Add(sink, From(r))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if got := src.Skipped(); got != total-gateAt {
		t.Errorf("source skipped %d tuples, want exactly %d", got, total-gateAt)
	}
	if len(relay.feedback) != 1 {
		t.Errorf("relay saw %d feedback messages", len(relay.feedback))
	}
	// Definition 1: the sink must have received every tuple outside the
	// subset — and, the guard being in place in time, nothing inside it.
	if len(sink.got) != gateAt {
		t.Fatalf("sink received %d tuples, want %d", len(sink.got), gateAt)
	}
	for i, tp := range sink.got {
		if tp.At(0).AsInt() != int64(i) {
			t.Fatalf("sink tuple %d is %v", i, tp)
		}
	}
}

func TestHarnessRecordsEverything(t *testing.T) {
	p := &passthrough{name: "p"}
	h := NewHarness(p)
	h.Tuples(intTuple(1), intTuple(2))
	h.Punct(0, punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(2)))))
	h.Feedback(0, core.NewAssumed(punct.OnAttr(1, 0, punct.Eq(stream.Int(9)))))
	h.EOS(0).CloseOp()
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if len(h.OutTuples(0)) != 2 || len(h.OutPuncts(0)) != 1 {
		t.Error("harness output accounting")
	}
	if len(p.feedback) != 1 {
		t.Error("feedback delivery")
	}
	h.Reset()
	if len(h.Out(0)) != 0 {
		t.Error("reset")
	}
	// A run emitted as one is recorded as its tuples, in order.
	run := []stream.Tuple{intTuple(3), intTuple(4)}
	h.EmitBatch(run)
	h.EmitBatchTo(0, run)
	per := NewHarness(p)
	for _, tp := range run {
		per.Emit(tp)
	}
	for _, tp := range run {
		per.EmitTo(0, tp)
	}
	if !reflect.DeepEqual(h.Out(0), per.Out(0)) {
		t.Errorf("batched emits recorded %v, per-tuple emits %v", h.Out(0), per.Out(0))
	}
}

func TestSliceSourceHarness(t *testing.T) {
	src := NewSliceSource("s", oneInt, intTuple(1), intTuple(2))
	src.Items = append(src.Items, queue.PunctItem(punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(2))))))
	h := NewSourceHarness(src)
	h.RunSource(100)
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if len(h.OutTuples(0)) != 2 || len(h.OutPuncts(0)) != 1 {
		t.Error("source harness output")
	}
}

func TestCollectorDiscard(t *testing.T) {
	c := NewCollector("c", oneInt)
	c.Discard = true
	n := 0
	c.OnTuple = func(stream.Tuple) { n++ }
	h := NewHarness(c)
	h.Tuples(intTuple(1), intTuple(2)).CloseOp()
	if n != 2 || c.Count() != 2 || len(c.Items()) != 0 {
		t.Error("discard collector accounting")
	}
}

func TestShutdownPropagatesUpstream(t *testing.T) {
	// A limited collector asks the plan to stop; the run must terminate
	// without draining the whole (large) source, and without error.
	tuples := make([]stream.Tuple, 2_000_000)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	src := NewSliceSource("src", oneInt, tuples...)
	src.BatchSize = 16
	relay := &passthrough{name: "relay"}
	sink := NewCollector("sink", oneInt)
	sink.Limit = 100
	g := NewGraph()
	s := g.AddSource(src)
	r := g.Add(relay, From(s))
	g.Add(sink, From(r))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	n := sink.Count()
	if n < 100 {
		t.Fatalf("collector got %d tuples, want ≥ limit", n)
	}
	// In-flight pages may still arrive after the shutdown request, but
	// the vast majority of the stream must never have been produced.
	if n > 1_000_000 {
		t.Fatalf("shutdown did not stop the source: %d tuples", n)
	}
}

func TestHarnessRecordsShutdown(t *testing.T) {
	c := NewCollector("c", oneInt)
	c.Limit = 1
	h := NewHarness(c)
	h.Tuples(intTuple(1), intTuple(2))
	if got := h.ShutdownsSent(); len(got) != 1 || got[0] != 0 {
		t.Errorf("shutdowns: %v", got)
	}
}

// mergeTwo is a 2-input pass-through used to exercise the runner's
// multi-input event loop.
type mergeTwo struct {
	Base
	name string
}

func (m *mergeTwo) Name() string { return m.name }
func (m *mergeTwo) InSchemas() []stream.Schema {
	return []stream.Schema{oneInt, oneInt}
}
func (m *mergeTwo) OutSchemas() []stream.Schema { return []stream.Schema{oneInt} }
func (m *mergeTwo) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	ctx.Emit(t)
	return nil
}

func TestGraphMultiInputOperator(t *testing.T) {
	mk := func(base int64, n int) []stream.Tuple {
		out := make([]stream.Tuple, n)
		for i := range out {
			out[i] = intTuple(base + int64(i))
		}
		return out
	}
	g := NewGraph()
	a := g.AddSource(NewSliceSource("a", oneInt, mk(0, 500)...))
	b := g.AddSource(NewSliceSource("b", oneInt, mk(1000, 500)...))
	m := g.Add(&mergeTwo{name: "merge"}, From(a), From(b))
	sink := NewCollector("sink", oneInt)
	g.Add(sink, From(m))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 1000 {
		t.Fatalf("merged %d tuples", len(got))
	}
	// Per-input order must be preserved even though the merge order is
	// nondeterministic.
	lastA, lastB := int64(-1), int64(999)
	for _, tp := range got {
		v := tp.At(0).AsInt()
		if v < 1000 {
			if v <= lastA {
				t.Fatalf("input a order broken at %d", v)
			}
			lastA = v
		} else {
			if v <= lastB {
				t.Fatalf("input b order broken at %d", v)
			}
			lastB = v
		}
	}
}
