package exec

import (
	"bytes"
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
// before its first tuple, so a test can queue its whole input behind it.
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

// gateSink counts tuples; it stalls in Open until wait closes (a consumer
// that is not reading) and closes seen at its first tuple.
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
func (s *gateSink) Open(Context) error {
	if s.wait != nil {
		<-s.wait
	}
	return nil
}
func (s *gateSink) ProcessTuple(int, stream.Tuple, Context) error {
	s.count.Add(1)
	if s.seen != nil {
		s.once.Do(func() { close(s.seen) })
	}
	return nil
}

// TestKickBeforeParkingOnFullRing is invariant iii under barrier alignment:
// a router forwarding a checkpoint barrier waits on output 0, whose consumer
// is stalled and whose ring is full, while output 1's consumer sits parked
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
			// One odd tuple: one page on port 1. depth even ones: port 0's
			// ring exactly full, nobody reading it.
			ctx.Emit(intTuple(1))
			for i := 0; i < depth; i++ {
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
	if a, b := sinkA.count.Load(), sinkB.count.Load(); a != depth*pageSize || b != pageSize {
		t.Errorf("sinks received %d and %d tuples, want %d and %d", a, b, depth*pageSize, pageSize)
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
// series.
func TestEdgeParkCountersExported(t *testing.T) {
	var release atomic.Bool
	src := newStepSource(func(Context) bool {
		runtime.Gosched()
		return !release.Load()
	})
	g := NewGraph()
	tel := telemetry.New()
	g.SetTelemetry(tel)
	g.Add(NewCollector("sink", oneInt), From(g.AddSource(src)))
	testguard.Within(t, time.Minute, func() {
		runErr := make(chan error, 1)
		go func() { runErr <- g.Run() }()
		<-src.started
		for edgeStats(g, From(0)).ConsumerParks == 0 {
			runtime.Gosched()
		}
		if rows := tel.Registry.EdgeSnapshots(); len(rows) != 1 || rows[0].ConsumerParks != 1 || rows[0].ProducerParks != 0 {
			t.Errorf("statusz edge rows: %+v", rows)
		}
		var out bytes.Buffer
		tel.Registry.WritePrometheus(&out)
		for _, series := range []string{
			"pace_edge_consumer_parks_total{", "pace_edge_producer_parks_total{",
			"pace_edge_consumer_yields_total{", "pace_edge_producer_yields_total{",
		} {
			if !strings.Contains(out.String(), series) {
				t.Errorf("exposition lacks %s", series)
			}
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

// TestOneGoroutinePerNode: a running n-node plan is n goroutines plus the
// one that called Run — no forwarder per edge, whatever the plan's shape.
func TestOneGoroutinePerNode(t *testing.T) {
	for _, relays := range []int{1, 4} {
		nodes := relays + 2
		// Run returns at its nodes' last wg.Done, not at their last exit: a
		// goroutine of an earlier plan that is still on its way out inflates
		// the count taken before this one starts. Such a reading is low, and
		// by the next attempt the straggler is gone.
		for attempt := 1; ; attempt++ {
			got := planGoroutines(t, relays)
			if got == nodes+1 {
				break
			}
			if got > nodes+1 || attempt == 5 {
				t.Errorf("%d-node plan runs %d goroutines, want %d", nodes, got, nodes+1)
				break
			}
		}
	}
}

// planGoroutines runs source → relays → sink until every consumer is parked
// and reports how many goroutines that took.
func planGoroutines(t *testing.T, relays int) int {
	var release atomic.Bool
	src := newStepSource(func(Context) bool {
		runtime.Gosched()
		return !release.Load()
	})
	g := NewGraph()
	at := g.AddSource(src)
	for i := 0; i < relays; i++ {
		at = g.Add(&passthrough{name: fmt.Sprintf("relay%d", i)}, From(at))
	}
	g.Add(NewCollector("sink", oneInt), From(at))

	before := runtime.NumGoroutine()
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	<-src.started
	for { // until every consumer is parked: the plan is fully started
		parked := 0
		for _, e := range g.Edges() {
			if e.Stats.ConsumerParks > 0 {
				parked++
			}
		}
		if parked == relays+1 {
			break
		}
		runtime.Gosched()
	}
	got := runtime.NumGoroutine() - before
	release.Store(true)
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	return got
}
