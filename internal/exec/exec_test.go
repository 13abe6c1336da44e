package exec

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
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
	// A source that may block keeps its ring; the hop behind it is chained.
	src := g.AddSource(struct{ Source }{NewSliceSource("src", oneInt, intTuple(1), intTuple(2))})
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

// TestGraphAddRefusesMiswiring: Graph.Add is the one wiring check — an
// operator is never handed an input index or feedback on an output port the
// plan does not have, so no operator re-checks one. Each refusal names the
// operator and fails Run before any node opens.
func TestGraphAddRefusesMiswiring(t *testing.T) {
	two := &splitTwo{name: "two"}
	for _, tc := range []struct {
		name string
		wire func(g *Graph, src NodeID)
		want string
	}{
		{"too few inputs", func(g *Graph, src NodeID) {
			g.Add(&mergeTwo{name: "m"}, From(src))
		}, `operator "m" wants 2 inputs, wired 1`},
		{"too many inputs", func(g *Graph, src NodeID) {
			g.Add(&passthrough{name: "p"}, From(src), From(src))
		}, `operator "p" wants 1 inputs, wired 2`},
		{"unknown node", func(g *Graph, src NodeID) {
			g.Add(&passthrough{name: "p"}, From(src+5))
		}, `operator "p" input 0 wired to unknown node 5`},
		{"output port out of range", func(g *Graph, src NodeID) {
			s := g.Add(two, From(src))
			g.Add(&passthrough{name: "p"}, FromPort(s, 2))
		}, `operator "p" input 0 wired to "two" output 2, which has 2 outputs`},
		{"schema mismatch", func(g *Graph, src NodeID) {
			g.Add(NewCollector("sink", twoInt), From(src))
		}, `"src" output 0 is (v:int) but "sink" input 0 wants`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph()
			tc.wire(g, g.AddSource(NewSliceSource("src", oneInt)))
			err := g.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// splitTwo forwards everything to both of its two outputs.
type splitTwo struct {
	Base
	name string
}

func (s *splitTwo) Name() string                { return s.name }
func (s *splitTwo) InSchemas() []stream.Schema  { return []stream.Schema{oneInt} }
func (s *splitTwo) OutSchemas() []stream.Schema { return []stream.Schema{oneInt, oneInt} }
func (s *splitTwo) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	ctx.EmitTo(0, t)
	ctx.EmitTo(1, t)
	return nil
}

// forgetful is a responding operator that relays punctuation without
// folding it into its responder: the runtime does that at the emit.
type forgetful struct{ Responding }

func (*forgetful) Name() string                { return "forgetful" }
func (*forgetful) InSchemas() []stream.Schema  { return []stream.Schema{oneInt} }
func (*forgetful) OutSchemas() []stream.Schema { return []stream.Schema{oneInt} }
func (f *forgetful) Open(Context) error {
	f.Bind(f, core.ModeExploit, false, 1, oneInt.Arity())
	return nil
}
func (*forgetful) Characterize(_ int, fb core.Feedback) core.ResponsePlan {
	return core.Stateless(fb, []core.Action{core.ActGuardOutput})
}
func (*forgetful) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	ctx.Emit(t)
	return nil
}
func (*forgetful) ProcessPunct(_ int, e punct.Embedded, ctx Context) error {
	ctx.EmitPunct(e)
	return nil
}

// TestRuntimeReleasesGuardsOnEmittedPunct (§4.4): an operator that emits
// punctuation covering its output guard has that guard released by the
// runtime, though it never calls Observe.
func TestRuntimeReleasesGuardsOnEmittedPunct(t *testing.T) {
	f := &forgetful{}
	upTo := func(v int64) punct.Pattern { return punct.OnAttr(1, 0, punct.Le(stream.Int(v))) }
	active := func(want int) Script {
		return Call(func(*Trace) {
			if n := f.OutTables()[0].Active(); n != want {
				t.Errorf("output guard holds %d entries, want %d", n, want)
			}
		})
	}
	tr := Drive(f, Feedback(0, core.NewAssumed(upTo(5))), active(1),
		Punct(0, punct.NewEmbedded(upTo(3))), active(1),
		Punct(0, punct.NewEmbedded(upTo(10))), active(0))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if n := len(tr.Out[0].Items()); n != 2 {
		t.Errorf("%d punctuations went downstream, want 2", n)
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
	src.Mode = core.ModeExploit
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
	src.Mode = core.ModeExploit
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
	if got := src.Suppressed(); got != total-gateAt {
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

// batchAtPunct holds its input tuples and emits them as one run, then the
// punctuation that released them.
type batchAtPunct struct {
	passthrough
	held []stream.Tuple
}

func (b *batchAtPunct) ProcessTuple(_ int, t stream.Tuple, _ Context) error {
	b.held = append(b.held, t.Clone())
	return nil
}

func (b *batchAtPunct) ProcessPunct(_ int, e punct.Embedded, ctx Context) error {
	ctx.EmitBatch(b.held)
	b.held = b.held[:0]
	ctx.EmitPunct(e)
	return nil
}

// TestDriveRecordsInOrder: what the operator emits — single tuples, a run
// emitted as one, punctuation — is recorded in order, and feedback reaches it
// through its output and goes on upstream.
func TestDriveRecordsInOrder(t *testing.T) {
	p := &batchAtPunct{passthrough: passthrough{name: "p", relay: true}}
	upTo2 := punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(2))))
	tr := Drive(p,
		Tuples(0, intTuple(1), intTuple(2)),
		Punct(0, upTo2),
		Feedback(0, core.NewAssumed(punct.OnAttr(1, 0, punct.Eq(stream.Int(9))))),
		Tuples(0, intTuple(3)),
		Punct(0, upTo2),
		EOS(0))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	var got []string
	for _, it := range tr.Out[0].Items() {
		if it.Kind == queue.ItemTuple {
			got = append(got, it.Tuple.String())
		} else {
			got = append(got, "punct")
		}
	}
	if want := []string{"<1>", "<2>", "punct", "<3>", "punct"}; !reflect.DeepEqual(got, want) {
		t.Errorf("recorded %v, want %v", got, want)
	}
	if len(p.feedback) != 1 || len(tr.Sent[0]) != 1 {
		t.Errorf("feedback: operator saw %d, relayed %d upstream; want 1 and 1", len(p.feedback), len(tr.Sent[0]))
	}
}

// keeper keeps its first input tuple without Clone and reads it back at the
// second.
type keeper struct {
	passthrough
	kept *stream.Tuple
	read stream.Value
}

func (k *keeper) ProcessTuple(_ int, t stream.Tuple, _ Context) error {
	if k.kept == nil {
		k.kept = &t
	} else {
		k.read = k.kept.At(0)
	}
	return nil
}

// TestScriptedTuplesAreRecycled: Drive builds the tuples it plays in recycled
// slabs, so an operator that keeps an input tuple past its callback without
// Clone reads what a later step overwrote — poison under -race.
func TestScriptedTuplesAreRecycled(t *testing.T) {
	k := &keeper{passthrough: passthrough{name: "k"}}
	if tr := Drive(k, Tuples(0, intTuple(1), intTuple(2))); tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if k.read.Kind == stream.KindInt && k.read.AsInt() == 1 {
		t.Fatal("a tuple kept without Clone still reads its own value: the driver handed out memory nobody recycles")
	}
}

// TestSliceSourceReplaysTuplesThenItems: the tuple fast path plays first, then
// Items.
func TestSliceSourceReplaysTuplesThenItems(t *testing.T) {
	src := NewSliceSource("s", oneInt, intTuple(1), intTuple(2))
	src.Items = append(src.Items, queue.PunctItem(punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(2))))))
	sink := NewCollector("sink", oneInt)
	g := NewGraph()
	g.Add(sink, From(g.AddSource(src)))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if its := sink.Items(); len(its) != 3 || its[2].Kind != queue.ItemPunct {
		t.Errorf("sink recorded %v, want two tuples then the punctuation", its)
	}
}

func TestCollectorDiscard(t *testing.T) {
	c := NewCollector("c", oneInt)
	c.Discard = true
	n := 0
	c.OnTuple = func(stream.Tuple) { n++ }
	if tr := Drive(c, Tuples(0, intTuple(1), intTuple(2))); tr.Err != nil {
		t.Fatal(tr.Err)
	}
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

// TestCollectorLimitStopsTheSource: a limited collector's shutdown reaches
// its source, chained to it, before the source's next step: the source
// stops after the page that carried the limit.
func TestCollectorLimitStopsTheSource(t *testing.T) {
	const page = 4
	tuples := make([]stream.Tuple, 100)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	src := NewSliceSource("src", oneInt, tuples...)
	src.BatchSize = page
	c := NewCollector("c", oneInt)
	c.Limit = 1
	g := NewGraph()
	g.SetQueueOptions(queue.Options{PageSize: page})
	g.Add(c, From(g.AddSource(src)))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(); got != page {
		t.Errorf("collector got %d tuples, want the one page of %d that carried its limit", got, page)
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
