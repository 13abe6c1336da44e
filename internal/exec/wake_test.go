package exec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/testguard"
)

// edgeStats reads one edge's counters off a running (or finished) plan.
func edgeStats(g *Graph, p Port) queue.Stats {
	return g.nodes[p.Node].outConns[p.Out].Stats()
}

// stepSource runs one closure per Next call until it reports the end; the
// closures of a test script its phases. It notes when the runtime cut it.
type stepSource struct {
	name    string
	step    func(ctx Context) (more bool)
	cuts    atomic.Int64
	started chan struct{} // closed by the first Next: the plan is wired
	once    sync.Once
}

func newStepSource(step func(ctx Context) bool) *stepSource {
	return &stepSource{name: "src", step: step, started: make(chan struct{})}
}

func (s *stepSource) Name() string                { return s.name }
func (s *stepSource) OutSchemas() []stream.Schema { return []stream.Schema{oneInt} }
func (s *stepSource) Open(Context) error          { return nil }
func (s *stepSource) Close(Context) error         { return nil }
func (s *stepSource) ProcessFeedback(int, core.Feedback, Context) error {
	return nil
}
func (s *stepSource) Next(ctx Context) (bool, error) {
	s.once.Do(func() { close(s.started) })
	return s.step(ctx), nil
}
func (s *stepSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	s.cuts.Add(1)
	return snapshot.Capture{Encode: func(*snapshot.Encoder) error { return nil }}, nil
}
func (s *stepSource) LoadState(*snapshot.Decoder) error { return nil }

// fanRouter sends fan copies of each tuple to port v%2 and waits at a gate
// before its first tuple, so a test can queue its whole input behind it. A
// blocking callback blocks its whole chain: the gate stalls the router alone
// because it is a chain of its own — fed by a source, and with two outputs,
// each of which heads a chain.
type fanRouter struct {
	Base
	fan  int
	gate chan struct{}
}

func (r *fanRouter) Name() string                { return "router" }
func (r *fanRouter) InSchemas() []stream.Schema  { return []stream.Schema{oneInt} }
func (r *fanRouter) OutSchemas() []stream.Schema { return []stream.Schema{oneInt, oneInt} }
func (r *fanRouter) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	<-r.gate
	for i := 0; i < r.fan; i++ {
		ctx.EmitTo(int(t.At(0).AsInt()%2), t)
	}
	return nil
}

// gateSink counts tuples; it stalls in its first ProcessTuple until wait
// closes (a consumer that is not reading) and closes seen at its first tuple.
// It stalls only itself where it heads its chain (fanRouter's outputs).
type gateSink struct {
	Base
	name  string
	wait  <-chan struct{}
	seen  chan struct{}
	once  sync.Once
	count atomic.Int64
}

func (s *gateSink) Name() string                { return s.name }
func (s *gateSink) InSchemas() []stream.Schema  { return []stream.Schema{oneInt} }
func (s *gateSink) OutSchemas() []stream.Schema { return nil }
func (s *gateSink) ProcessTuple(int, stream.Tuple, Context) error {
	if s.wait != nil {
		<-s.wait
	}
	s.count.Add(1)
	if s.seen != nil {
		s.once.Do(func() { close(s.seen) })
	}
	return nil
}

// TestKickBeforeParkingOnFullRing is invariant iii under barrier alignment:
// a router forwarding a checkpoint barrier waits on output 0, whose consumer
// is stalled on its first page and whose ring is full behind it, while output 1's consumer sits parked
// on one published page — below half a ring, so nothing has woken it. The
// stalled consumer only resumes once the parked one has seen that page, so
// the plan (and the checkpoint) completes only if a producer about to wait
// kicks every ring it has published into.
func TestKickBeforeParkingOnFullRing(t *testing.T) {
	const pageSize, depth = 4, 8
	seenB := make(chan struct{})
	sinkA := &gateSink{name: "stalled", wait: seenB}
	sinkB := &gateSink{name: "parked", seen: seenB}
	router := &fanRouter{fan: pageSize, gate: make(chan struct{})}

	g := NewGraph()
	g.SetQueueOptions(queue.Options{PageSize: pageSize, Depth: depth})
	var (
		phase    int
		emitted  = make(chan struct{})
		ckptDone atomic.Bool
		src      *stepSource
		r        NodeID
	)
	src = newStepSource(func(ctx Context) bool {
		switch phase {
		case 0: // until the port-1 consumer is parked on its empty ring
			if edgeStats(g, FromPort(r, 1)).ConsumerParks == 0 {
				runtime.Gosched()
				return true
			}
			// One odd tuple: one page on port 1. depth+1 even ones: one
			// page the stalled consumer holds, and port 0's ring full
			// behind it.
			ctx.Emit(intTuple(1))
			for i := 0; i <= depth; i++ {
				ctx.Emit(intTuple(2))
			}
			phase = 1
			close(emitted)
		case 1: // until the cut: the barrier is then queued behind the data
			if src.cuts.Load() == 0 {
				runtime.Gosched()
				return true
			}
			close(router.gate)
			phase = 2
		case 2:
			if !ckptDone.Load() {
				runtime.Gosched()
				return true
			}
			return false
		}
		return true
	})
	s := g.AddSource(src)
	r = g.Add(router, From(s))
	g.Add(sinkA, FromPort(r, 0))
	g.Add(sinkB, FromPort(r, 1))

	testguard.Within(t, time.Minute, func() {
		runErr := make(chan error, 1)
		go func() { runErr <- g.Run() }()
		<-emitted
		dc, _ := local(g, snapshot.NewMemory())
		_, err := dc.CheckpointOnce(snapshot.CaptureFull)
		ckptDone.Store(true)
		if err != nil {
			t.Errorf("checkpoint across the parked producer: %v", err)
		}
		if err := <-runErr; err != nil {
			t.Error(err)
		}
	})
	if a, b := sinkA.count.Load(), sinkB.count.Load(); a != (depth+1)*pageSize || b != pageSize {
		t.Errorf("sinks received %d and %d tuples, want %d and %d", a, b, (depth+1)*pageSize, pageSize)
	}
	// With a second processor the kicked consumer usually unblocks the
	// stalled one while the router is still polling: a yield, not a park.
	if st := edgeStats(g, FromPort(r, 0)); st.ProducerParks+st.ProducerYields == 0 {
		t.Error("the router never waited on its full output: the scenario did not happen")
	}
}

// pageSource emits exactly one page per Next call and records how many calls
// had started when feedback reached it.
type pageSource struct {
	pageSize, pages int
	calls           atomic.Int64
	feedbackAt      atomic.Int64
}

func (s *pageSource) Name() string                { return "src" }
func (s *pageSource) OutSchemas() []stream.Schema { return []stream.Schema{oneInt} }
func (s *pageSource) Open(Context) error          { return nil }
func (s *pageSource) Close(Context) error         { return nil }
func (s *pageSource) Next(ctx Context) (bool, error) {
	n := s.calls.Add(1)
	for i := 0; i < s.pageSize; i++ {
		ctx.Emit(intTuple(n))
	}
	return int(n) < s.pages, nil
}
func (s *pageSource) ProcessFeedback(int, core.Feedback, Context) error {
	s.feedbackAt.CompareAndSwap(0, s.calls.Load())
	return nil
}

// TestFeedbackOvertakesAtParkedProducer is invariant ii at its tightest
// spot: a producer parked on a full ring cannot run its feedback handler
// (it is inside an emit), but it must run it before it emits another page —
// the page it parked on is the only one that may follow the feedback.
func TestFeedbackOvertakesAtParkedProducer(t *testing.T) {
	const pageSize, depth = 4, 4
	g := NewGraph()
	g.SetQueueOptions(queue.Options{PageSize: pageSize, Depth: depth})
	src := &pageSource{pageSize: pageSize, pages: 40}
	var parkedAt int64
	sink := NewCollector("sink", oneInt)
	sink.Discard = true
	sent := false
	capture := captureCtx(sink)
	sink.OnTuple = func(stream.Tuple) {
		if sent {
			return
		}
		sent = true
		// The first tuple: hold the page until the producer has filled the
		// ring behind it and parked, then tell it something.
		for edgeStats(g, From(0)).ProducerParks == 0 {
			runtime.Gosched()
		}
		parkedAt = src.calls.Load()
		capture.ctx.SendFeedback(0, core.NewAssumed(punct.OnAttr(1, 0, punct.Ge(stream.Int(0)))))
	}
	g.Add(capture, From(g.AddSource(src)))
	testguard.Within(t, time.Minute, func() {
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got := src.feedbackAt.Load(); got != parkedAt {
		t.Fatalf("producer parked inside Next call %d handled the feedback after call %d", parkedAt, got)
	}
	if sink.Count() != int64(pageSize*src.pages) {
		t.Fatalf("sink received %d tuples", sink.Count())
	}
}

// ctxCapture hands a test the Collector's runtime context: ctx is set once
// opened is closed.
type ctxCapture struct {
	*Collector
	ctx    Context
	opened chan struct{}
}

func captureCtx(c *Collector) *ctxCapture {
	return &ctxCapture{Collector: c, opened: make(chan struct{})}
}

func (c *ctxCapture) Open(ctx Context) error {
	c.ctx = ctx
	close(c.opened)
	return c.Collector.Open(ctx)
}

// TestFeedbackWakesParkedNode: a node parked for input, with none coming,
// handles feedback the moment it is sent — SendControl signals the
// producer's wake, no data page has to pass by first.
func TestFeedbackWakesParkedNode(t *testing.T) {
	var release atomic.Bool
	src := newStepSource(func(Context) bool {
		runtime.Gosched()
		return !release.Load()
	})
	handled := make(chan struct{})
	relay := &notifyRelay{handled: handled}
	sink := captureCtx(NewCollector("sink", oneInt))
	g := NewGraph()
	g.Add(sink, From(g.Add(relay, From(g.AddSource(src)))))
	testguard.Within(t, time.Minute, func() {
		runErr := make(chan error, 1)
		go func() { runErr <- g.Run() }()
		<-src.started
		<-sink.opened
		for edgeStats(g, From(0)).ConsumerParks == 0 {
			runtime.Gosched() // until the relay is parked: its only input is empty
		}
		sink.ctx.SendFeedback(0, core.NewAssumed(punct.OnAttr(1, 0, punct.Ge(stream.Int(0)))))
		<-handled
		release.Store(true)
		if err := <-runErr; err != nil {
			t.Fatal(err)
		}
	})
}

// TestEdgeParkCountersExported: the park and yield counters surface where
// edges are reported — EdgeInfo, the /statusz edge rows and the pace_edge_*
// series — for a ring; a direct edge is reported as such, without the depth,
// parks and yields that do not apply to it.
func TestEdgeParkCountersExported(t *testing.T) {
	var release atomic.Bool
	src := newStepSource(func(Context) bool {
		runtime.Gosched()
		return !release.Load()
	})
	g := NewGraph()
	tel := telemetry.New()
	g.SetTelemetry(tel)
	g.Add(NewCollector("sink", oneInt), From(g.Add(&passthrough{name: "relay"}, From(g.AddSource(src)))))
	testguard.Within(t, time.Minute, func() {
		runErr := make(chan error, 1)
		go func() { runErr <- g.Run() }()
		<-src.started
		for edgeStats(g, From(0)).ConsumerParks == 0 {
			runtime.Gosched()
		}
		rows := tel.Registry.EdgeSnapshots()
		if len(rows) != 2 || rows[0].Direct || rows[0].ConsumerParks != 1 || rows[0].ProducerParks != 0 || !rows[1].Direct {
			t.Errorf("statusz edge rows: %+v", rows)
		}
		for i, want := range []bool{true, false} {
			js, err := json.Marshal(rows[i])
			if err != nil || strings.Contains(string(js), `"consumer_parks"`) != want ||
				strings.Contains(string(js), `"queue_depth_pages"`) != want || strings.Contains(string(js), `"direct":true`) == want {
				t.Errorf("edge %d as JSON: %s (%v)", i, js, err)
			}
		}
		var out bytes.Buffer
		tel.Registry.WritePrometheus(&out)
		for _, series := range []string{
			"pace_edge_consumer_parks_total{", "pace_edge_producer_parks_total{",
			"pace_edge_consumer_yields_total{", "pace_edge_producer_yields_total{",
			"pace_edge_queue_depth_pages{",
		} {
			if n := strings.Count(out.String(), series); n != 1 {
				t.Errorf("exposition has %d %s series, want the ring's one", n, series)
			}
		}
		if n := strings.Count(out.String(), "pace_edge_tuples_total{"); n != 2 {
			t.Errorf("exposition has %d pace_edge_tuples_total series, want both edges'", n)
		}
		release.Store(true)
		if err := <-runErr; err != nil {
			t.Fatal(err)
		}
	})
}

type notifyRelay struct {
	passthrough
	handled chan struct{}
}

func (r *notifyRelay) Name() string { return "relay" }
func (r *notifyRelay) ProcessFeedback(int, core.Feedback, Context) error {
	close(r.handled)
	return nil
}

// inlineStep is a stepSource with outs outputs that declares it never
// blocks: its steps yield, they do not wait.
type inlineStep struct {
	*stepSource
	outs int
}

func (s inlineStep) NeverBlocks() {}
func (s inlineStep) OutSchemas() []stream.Schema {
	schemas := make([]stream.Schema, s.outs)
	for i := range schemas {
		schemas[i] = oneInt
	}
	return schemas
}

// TestOneGoroutinePerChain: a running plan is one goroutine per chain and the
// one that called Run — no goroutine per chained node, and no forwarder per
// edge. A node is chained when its one input is the only output of an
// operator or of a source that never blocks, or when all its inputs come from
// one chain: source → relays → sink is the source and one chain, or one chain
// when the source is inline; the shape Parallel(2) compiles to — split → two
// replicas → merge → sink — is the source and four chains, the sink chained
// to the merge; a split whose outputs all feed one merge, or a two-output
// inline source feeding a two-input operator, is one chain.
func TestOneGoroutinePerChain(t *testing.T) {
	open := make(chan struct{})
	close(open)
	linear := func(relays int) func(g *Graph, src NodeID) {
		return func(g *Graph, at NodeID) {
			for i := 0; i < relays; i++ {
				at = g.Add(&passthrough{name: fmt.Sprintf("relay%d", i)}, From(at))
			}
			g.Add(NewCollector("sink", oneInt), From(at))
		}
	}
	parallel := func(g *Graph, src NodeID) {
		split := g.Add(&fanRouter{fan: 1, gate: open}, From(src))
		a := g.Add(&passthrough{name: "replica0"}, FromPort(split, 0))
		b := g.Add(&passthrough{name: "replica1"}, FromPort(split, 1))
		g.Add(NewCollector("sink", oneInt), From(g.Add(&mergeTwo{name: "merge"}, From(a), From(b))))
	}
	splitMerge := func(g *Graph, src NodeID) {
		split := g.Add(&fanRouter{fan: 1, gate: open}, From(src))
		g.Add(NewCollector("sink", oneInt), From(g.Add(&mergeTwo{name: "merge"}, FromPort(split, 0), FromPort(split, 1))))
	}
	join := func(g *Graph, src NodeID) {
		g.Add(NewCollector("sink", oneInt), From(g.Add(&mergeTwo{name: "join"}, FromPort(src, 0), FromPort(src, 1))))
	}
	for _, tc := range []struct {
		name   string
		build  func(g *Graph, src NodeID)
		inline int // the source's outputs when it never blocks
		chains int
	}{
		{"1 relay", linear(1), 0, 2},
		{"4 relays", linear(4), 0, 2},
		{"Parallel(2)", parallel, 0, 5},
		{"split → merge", splitMerge, 0, 2},
		{"inline source → relay", linear(1), 1, 1},
		{"two-output inline source → join", join, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var release atomic.Bool
			step := newStepSource(func(Context) bool {
				runtime.Gosched()
				return !release.Load()
			})
			var src Source = step
			if tc.inline > 0 {
				src = inlineStep{step, tc.inline}
			}
			g := NewGraph()
			tc.build(g, g.AddSource(src))
			for planGoroutines() > 0 {
				runtime.Gosched() // an earlier plan's goroutines on their way out
			}
			testguard.Within(t, time.Minute, func() {
				runErr := make(chan error, 1)
				go func() { runErr <- g.Run() }()
				<-step.started
				for !allHeadsParked(g) {
					runtime.Gosched() // until the plan is fully started
				}
				if got, want := planGoroutines(), tc.chains+1; got != want {
					t.Errorf("plan runs %d goroutines, want %d: %d chains and Run's caller", got, want, tc.chains)
				}
				release.Store(true)
				if err := <-runErr; err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestSliceSourceIsInline: SliceSource declares that its Next never blocks,
// so its consumer runs on its goroutine; a source that may block keeps its
// ring.
func TestSliceSourceIsInline(t *testing.T) {
	for _, tc := range []struct {
		src     Source
		chained bool
	}{
		{NewSliceSource("src", oneInt), true},
		{struct{ Source }{NewSliceSource("src", oneInt)}, false},
	} {
		g := NewGraph()
		relay := g.Add(&passthrough{name: "relay"}, From(g.AddSource(tc.src)))
		if got := g.Chained(relay); got != tc.chained {
			t.Errorf("%T: consumer chained %v, want %v", tc.src, got, tc.chained)
		}
	}
}

// planGoroutines counts the goroutines inside the runtime of a plan: chains
// and callers of Run.
func planGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "repro/internal/exec.(*Graph).runChain(") || strings.Contains(g, "repro/internal/exec.(*Graph).Run(") {
			n++
		}
	}
	return n
}

// allHeadsParked reports whether every ring's consumer has parked on it: every
// chain head has found its inputs empty.
func allHeadsParked(g *Graph) bool {
	for _, e := range g.Edges() {
		if !e.Direct && e.Stats.ConsumerParks == 0 {
			return false
		}
	}
	return true
}

// TestChainedFeedbackWithinK: feedback crosses a chained hop within K items
// of the producer's input, with no scheduler in between — the consumer runs
// on the producer's goroutine, inside the emit that handed it the page, and
// the producer rechecks control every K items.
func TestChainedFeedbackWithinK(t *testing.T) {
	const total = 5000
	tuples := make([]stream.Tuple, total)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	relay := &countingRelay{}
	var sentAt int64 = -1
	sink := captureCtx(NewCollector("sink", oneInt))
	sink.Discard = true
	sink.OnTuple = func(t stream.Tuple) {
		if sentAt < 0 && t.At(0).AsInt() == 1000 {
			sentAt = relay.seen
			sink.ctx.SendFeedback(0, core.NewAssumed(punct.OnAttr(1, 0, punct.Ge(stream.Int(0)))))
		}
	}
	g := NewGraph()
	g.Add(sink, From(g.Add(relay, From(g.AddSource(NewSliceSource("src", oneInt, tuples...))))))
	testguard.Within(t, time.Minute, func() {
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if sentAt < 0 || relay.feedbackAt < sentAt || relay.feedbackAt-sentAt > DefaultControlInterval {
		t.Errorf("feedback sent after the relay's tuple %d reached it at tuple %d: want within %d",
			sentAt, relay.feedbackAt, DefaultControlInterval)
	}
	if e := g.Edges()[1]; !e.Direct || e.Stats.Tuples != total {
		t.Errorf("relay → sink edge: %+v, want direct with %d tuples", e, total)
	}
}

// TestPanicNamesItsNode: a panic in any node's callback is that node's error —
// named after it, not after its chain's head, and after the newest epoch the
// graph had begun, which the epoch timeline (/epochz) records too — and the
// graph shuts down as on any error: every node that was opened is closed, and
// Run returns. (TestMain's leak gate checks that no goroutine outlives the
// run.)
func TestPanicNamesItsNode(t *testing.T) {
	for _, tc := range []struct {
		name, culprit string
		relay, sink   string // the callback of each that panics
		feedback      bool   // the sink sends feedback
		epoch         int64  // the epoch the graph resumes after, as from RestoreChain
	}{
		{name: "chained sink's tuple", culprit: "sink", sink: "tuple"},
		{name: "chained sink's Open", culprit: "sink", sink: "open"},
		{name: "chained sink's Close", culprit: "sink", sink: "close", epoch: 7},
		{name: "head's feedback", culprit: "relay", relay: "feedback", feedback: true},
		{name: "head's tuple", culprit: "relay", relay: "tuple", epoch: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tuples := make([]stream.Tuple, 10_000)
			for i := range tuples {
				tuples[i] = intTuple(int64(i))
			}
			relay := &bomb{passthrough: passthrough{name: "relay"}, at: tc.relay}
			sink := &bomb{passthrough: passthrough{name: "sink"}, at: tc.sink, sink: true, feedback: tc.feedback}
			g := NewGraph()
			g.Add(sink, From(g.Add(relay, From(g.AddSource(NewSliceSource("src", oneInt, tuples...))))))
			g.SetTelemetry(telemetry.New())
			g.chkEpoch.Store(tc.epoch)
			var err error
			testguard.Within(t, time.Minute, func() { err = g.Run() })
			if want := fmt.Sprintf("exec: node %q: panic after epoch %d: boom", tc.culprit, tc.epoch); err == nil || err.Error() != want {
				t.Errorf("Run: %v, want %s", err, want)
			}
			want := telemetry.EpochEvent{Epoch: tc.epoch, Phase: "panic", Part: tc.culprit,
				Err: fmt.Sprintf("panic after epoch %d: boom", tc.epoch)}
			if evs := g.Telemetry().Timeline.Events(); len(evs) != 1 || evs[0].At.IsZero() {
				t.Errorf("timeline %+v, want one %+v", evs, want)
			} else if evs[0].At = (time.Time{}); evs[0] != want {
				t.Errorf("timeline %+v, want %+v", evs[0], want)
			}
			for _, b := range []*bomb{relay, sink} {
				if b.opened != b.closed {
					t.Errorf("%s: opened %v, closed %v", b.name, b.opened, b.closed)
				}
			}
		})
	}
}

// bomb is a relay — or, with sink set, a sink — that panics in one callback:
// "open", "tuple", "feedback" or "close". A sink with feedback set asks its
// producer to drop everything at its tenth tuple.
type bomb struct {
	passthrough
	at             string
	sink, feedback bool
	seen           int
	opened, closed bool
}

func (b *bomb) blow(at string) {
	if b.at == at {
		panic("boom")
	}
}
func (b *bomb) OutSchemas() []stream.Schema {
	if b.sink {
		return nil
	}
	return b.passthrough.OutSchemas()
}
func (b *bomb) Open(Context) error {
	b.blow("open")
	b.opened = true
	return nil
}
func (b *bomb) ProcessTuple(in int, t stream.Tuple, ctx Context) error {
	b.blow("tuple")
	if b.seen++; b.feedback && b.seen == 10 {
		ctx.SendFeedback(0, core.NewAssumed(punct.OnAttr(1, 0, punct.Ge(stream.Int(0)))))
	}
	if b.sink {
		return nil
	}
	return b.passthrough.ProcessTuple(in, t, ctx)
}
func (b *bomb) ProcessFeedback(int, core.Feedback, Context) error {
	b.blow("feedback")
	return nil
}
func (b *bomb) Close(Context) error {
	b.closed = true
	b.blow("close")
	return nil
}

// countingRelay forwards tuples, counting them, and records the count at the
// first feedback.
type countingRelay struct {
	passthrough
	seen, feedbackAt int64
}

func (r *countingRelay) Name() string { return "relay" }
func (r *countingRelay) ProcessTuple(in int, t stream.Tuple, ctx Context) error {
	r.seen++
	return r.passthrough.ProcessTuple(in, t, ctx)
}
func (r *countingRelay) ProcessFeedback(int, core.Feedback, Context) error {
	if r.feedbackAt == 0 {
		r.feedbackAt = r.seen
	}
	return nil
}
