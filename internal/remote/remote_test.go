package remote

import (
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

var schema = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

func mkTuple(seg, ts int64, speed float64) stream.Tuple {
	return stream.NewTuple(stream.Int(seg), stream.TimeMicros(ts), stream.Float(speed)).WithSeq(seg)
}

// runDistributed wires producer-plan → [conn] → consumer-plan and runs both
// graphs concurrently, returning the consumer's collector and the
// producer-side feedback-aware source.
func runDistributed(t *testing.T, conn1, conn2 net.Conn, n int, feedbackTrigger int64) (*exec.Collector, *exec.SliceSource, *Sink, *Source) {
	t.Helper()
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = mkTuple(int64(i%5), int64(i)*1000, 50).WithSeq(int64(i))
	}
	// Punctuation every 8 tuples closes small frames, so the consumer sees
	// tuples while most of the stream is ungenerated.
	src := exec.NewSliceSource("src", schema)
	src.Items = punctuated(tuples, 8)
	src.FeedbackAware = true
	src.BatchSize = 4

	sink := NewSink("wire-out", schema, conn1)

	// Producer graph: src → select(propagating) → remote sink. Shallow
	// queues keep the source close behind the wire so feedback lands
	// while most of the stream is ungenerated.
	gp := exec.NewGraph()
	gp.SetQueueOptions(queue.Options{PageSize: 4, Depth: 2})
	sel := &selectRelay{}
	sp := gp.AddSource(src)
	fp := gp.Add(sel, exec.From(sp))
	gp.Add(sink, exec.From(fp))

	// Consumer graph: remote source → feedback-producing sink.
	rsrc := NewSource("wire-in", schema, conn2)
	col := exec.NewCollector("col", schema)
	fbSink := &triggerSink{inner: col, trigger: feedbackTrigger}
	gc := exec.NewGraph()
	gc.SetQueueOptions(queue.Options{PageSize: 4, Depth: 2})
	sc := gc.AddSource(rsrc)
	gc.Add(fbSink, exec.From(sc))

	var wg sync.WaitGroup
	var errP, errC error
	wg.Add(2)
	go func() { defer wg.Done(); errP = gp.Run() }()
	go func() { defer wg.Done(); errC = gc.Run() }()
	wg.Wait()
	if errP != nil {
		t.Fatalf("producer graph: %v", errP)
	}
	if errC != nil {
		t.Fatalf("consumer graph: %v", errC)
	}
	return col, src, sink, rsrc
}

// selectRelay passes tuples and relays feedback upstream.
type selectRelay struct {
	exec.Base
}

func (*selectRelay) Name() string                { return "relay" }
func (*selectRelay) InSchemas() []stream.Schema  { return []stream.Schema{schema} }
func (*selectRelay) OutSchemas() []stream.Schema { return []stream.Schema{schema} }
func (*selectRelay) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	ctx.Emit(t)
	return nil
}
func (*selectRelay) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	ctx.EmitPunct(e)
	return nil
}
func (*selectRelay) ProcessFeedback(_ int, f core.Feedback, ctx exec.Context) error {
	ctx.SendFeedback(0, f)
	return nil
}

// triggerSink collects and, after `trigger` tuples, sends assumed feedback
// for segment 3.
type triggerSink struct {
	exec.Base
	inner   *exec.Collector
	trigger int64
	seen    int64
	sent    bool
}

func (s *triggerSink) Name() string                { return "trigger" }
func (s *triggerSink) InSchemas() []stream.Schema  { return []stream.Schema{schema} }
func (s *triggerSink) OutSchemas() []stream.Schema { return nil }
func (s *triggerSink) ProcessTuple(in int, t stream.Tuple, ctx exec.Context) error {
	if err := s.inner.ProcessTuple(in, t, ctx); err != nil {
		return err
	}
	s.seen++
	if !s.sent && s.seen >= s.trigger {
		s.sent = true
		ctx.SendFeedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3)))))
	}
	return nil
}

func TestRemoteEdgeOverNetPipe(t *testing.T) {
	c1, c2 := net.Pipe()
	col, src, sink, rsrc := runDistributed(t, c1, c2, 2000, 10)

	// Data integrity: everything the producer let through arrived.
	got := col.Tuples()
	if len(got) == 0 {
		t.Fatal("no tuples crossed the wire")
	}
	received, fbOut := counter(rsrc, "pace_remote_tuples_received_total"), counter(rsrc, "pace_remote_feedback_sent_total")
	sent, fbIn := counter(sink, "pace_remote_tuples_sent_total"), counter(sink, "pace_remote_feedback_received_total")
	if received != sent {
		t.Errorf("sent %d != received %d", sent, received)
	}
	if fbOut != 1 || fbIn != 1 {
		t.Errorf("feedback crossing: out=%d in=%d", fbOut, fbIn)
	}
	// The feedback crossed the wire AND the producer-side source
	// exploited it: segment 3 generation stops.
	if src.Skipped() == 0 {
		t.Error("producer-side source must exploit remote feedback")
	}
	// Definition 1: all non-subset tuples arrive.
	counts := map[int64]int{}
	for _, tp := range got {
		counts[tp.At(0).AsInt()]++
	}
	for seg := int64(0); seg < 5; seg++ {
		if seg == 3 {
			continue
		}
		if counts[seg] != 400 {
			t.Errorf("segment %d: %d tuples, want 400", seg, counts[seg])
		}
	}
	if counts[3] >= 400 {
		t.Error("suppressed segment should be incomplete")
	}
}

func TestRemoteEdgeOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var consumerConn net.Conn
	var acceptErr error
	done := make(chan struct{})
	go func() {
		consumerConn, acceptErr = l.Accept()
		close(done)
	}()
	producerConn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if acceptErr != nil {
		t.Fatal(acceptErr)
	}
	col, _, _, _ := runDistributed(t, producerConn, consumerConn, 1000, 1<<60)
	if got := col.Tuples(); len(got) != 1000 {
		t.Fatalf("TCP transfer: %d tuples, want 1000", len(got))
	}
}

func TestRemotePunctuationCrossesWire(t *testing.T) {
	c1, c2 := net.Pipe()
	sink := NewSink("out", schema, c1)
	rsrc := NewSource("in", schema, c2)

	gp := exec.NewGraph()
	src := exec.NewSliceSource("src", schema, mkTuple(1, 10, 50))
	src.Items = append(src.Items, itemPunct(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(10)))))
	sp := gp.AddSource(src)
	gp.Add(sink, exec.From(sp))

	gc := exec.NewGraph()
	col := exec.NewCollector("col", schema)
	sc := gc.AddSource(rsrc)
	gc.Add(col, exec.From(sc))

	var wg sync.WaitGroup
	wg.Add(2)
	var e1, e2 error
	go func() { defer wg.Done(); e1 = gp.Run() }()
	go func() { defer wg.Done(); e2 = gc.Run() }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	items := col.Items()
	var sawPunct bool
	for _, it := range items {
		if itIsPunct(it) {
			sawPunct = true
		}
	}
	if !sawPunct {
		t.Fatal("embedded punctuation must cross the wire")
	}
}

// test helpers over queue items.
// punctuated is tuples as queue items, with a punctuation on ts after every
// `every` of them: each closes the open data frame.
func punctuated(tuples []stream.Tuple, every int) []queue.Item {
	var items []queue.Item
	for i, tp := range tuples {
		items = append(items, queue.TupleItem(tp))
		if (i+1)%every == 0 {
			items = append(items, itemPunct(punct.OnAttr(3, 1, punct.Le(tp.At(1)))))
		}
	}
	return items
}

func itemPunct(p punct.Pattern) queue.Item { return queue.PunctItem(punct.NewEmbedded(p)) }
func itIsPunct(it queue.Item) bool         { return it.Kind == queue.ItemPunct }

// A wedged upstream peer — connection open, no frames — must surface as a
// timed-out node error through Source.ReadTimeout, not stall forever.
func TestSourceReadTimeout(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	src := NewSource("stalled", schema, c2)
	src.ReadTimeout = 50 * time.Millisecond
	if err := src.Open(nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := src.Next(nil) // the timeout path never touches the context
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "wedged") {
			t.Fatalf("Next returned %v, want wedged-producer timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not time out")
	}
}

// TestSourceDecodesIntoRecycledSlabs: the wire decoder builds each frame's
// tuples in an exec.Slab, which the pages carrying them adopt and recycle.
// Over a long stream, with slabs and pages recycled many times over, every
// frame draws a slab, the pool serves most of them, and what the plan kept is
// still what the producer sent (under -race a slab recycled while a page still
// held it would arrive poisoned).
func TestSourceDecodesIntoRecycledSlabs(t *testing.T) {
	const n = 20_000
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = mkTuple(int64(i), int64(i)*1000, float64(i)/4)
	}
	c1, c2 := net.Pipe()
	gp := exec.NewGraph()
	sink := NewSink("wire-out", schema, c1)
	src := exec.NewSliceSource("src", schema)
	src.Items = punctuated(tuples, 64) // many frames, so many slabs, to recycle
	gp.Add(sink, exec.From(gp.AddSource(src)))
	gc := exec.NewGraph()
	col := exec.NewCollector("col", schema)
	rsrc := NewSource("wire-in", schema, c2)
	gc.Add(col, exec.From(gc.AddSource(rsrc)))

	gets0, misses0 := queue.SlabStats()
	errP := make(chan error, 1)
	go func() { errP <- gp.Run() }()
	if err := gc.Run(); err != nil {
		t.Fatalf("consumer graph: %v", err)
	}
	if err := <-errP; err != nil {
		t.Fatalf("producer graph: %v", err)
	}
	got := col.Tuples()
	if len(got) != n {
		t.Fatalf("%d tuples crossed, want %d", len(got), n)
	}
	for i, tp := range got {
		if tp.Seq != tuples[i].Seq || !slices.EqualFunc(tp.Values, tuples[i].Values, stream.Value.Equal) {
			t.Fatalf("tuple %d crossed as %v, want %v", i, tp, tuples[i])
		}
	}
	gets, misses := queue.SlabStats()
	gets, misses = gets-gets0, misses-misses0
	dataFrames := rsrc.framesIn.Load() - 1 - n/64 // all but EOS and the punctuation
	t.Logf("%d data frames, %d slab requests, %d missed the pool", dataFrames, gets, misses)
	if gets < dataFrames {
		t.Errorf("%d slab requests for %d data frames: frames are not decoded into slabs", gets, dataFrames)
	}
	// A miss is a slab drawn while the ring still holds every earlier one
	// (0-20 here); under the race detector sync.Pool also drops a quarter of
	// what is put back.
	missLimit := gets / 4
	if raceBuild {
		missLimit = gets / 2
	}
	if misses > missLimit {
		t.Errorf("%d of %d slab requests missed the pool (limit %d): slabs are not recycled", misses, gets, missLimit)
	}
}

// counter reads one of the counts an end exports, as /metrics serves it.
func counter(end telemetry.VarExporter, name string) int64 {
	for _, v := range end.TelemetryVars() {
		if v.Name == name {
			return v.Value()
		}
	}
	panic("no counter " + name)
}
