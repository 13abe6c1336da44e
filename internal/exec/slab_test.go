package exec

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/testguard"
)

// slabMapper rebuilds every run it is handed in one recycled slab, the way the
// engine's run-building sites do: tuple i leaves as mapped(i).
type slabMapper struct {
	Base
	one [1]queue.Item
}

func mapped(i int64) int64 { return 3*i + 1 }

func (m *slabMapper) Name() string                { return "slab-map" }
func (m *slabMapper) InSchemas() []stream.Schema  { return []stream.Schema{oneInt} }
func (m *slabMapper) OutSchemas() []stream.Schema { return []stream.Schema{oneInt} }
func (m *slabMapper) ProcessTuple(in int, t stream.Tuple, ctx Context) error {
	m.one[0] = queue.TupleItem(t)
	return m.ProcessTupleBatch(in, m.one[:], ctx)
}
func (m *slabMapper) ProcessTupleBatch(_ int, items []queue.Item, ctx Context) error {
	slab := Slab(ctx, len(items))
	run := make([]stream.Tuple, len(items))
	for i := range items {
		slab[i] = stream.Int(mapped(items[i].Tuple.At(0).I))
		run[i] = stream.Tuple{Values: slab[i : i+1 : i+1], Seq: items[i].Tuple.Seq}
	}
	ctx.EmitBatch(run)
	return nil
}

// forward2 forwards both inputs by header.
type forward2 struct{ Base }

func (forward2) Name() string                { return "forward2" }
func (forward2) InSchemas() []stream.Schema  { return []stream.Schema{oneInt, oneInt} }
func (forward2) OutSchemas() []stream.Schema { return []stream.Schema{oneInt} }
func (forward2) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	ctx.Emit(t)
	return nil
}

// cutSource emits tuple i as intTuple(i), one per Next, and waits at gateAt
// for a checkpoint to cut it there.
type cutSource struct {
	n, gateAt, pos int
	cut            bool
	done           atomic.Bool
}

func (s *cutSource) Name() string                                      { return "cut-source" }
func (s *cutSource) OutSchemas() []stream.Schema                       { return []stream.Schema{oneInt} }
func (s *cutSource) Open(Context) error                                { return nil }
func (s *cutSource) Close(Context) error                               { return nil }
func (s *cutSource) ProcessFeedback(int, core.Feedback, Context) error { return nil }
func (s *cutSource) LoadState(*snapshot.Decoder) error                 { return nil }
func (s *cutSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	s.cut = true
	return snapshot.Capture{Encode: func(*snapshot.Encoder) error { return nil }}, nil
}
func (s *cutSource) Next(ctx Context) (bool, error) {
	if s.pos == s.gateAt && !s.cut {
		runtime.Gosched()
		return true, nil
	}
	ctx.Emit(intTuple(int64(s.pos)))
	s.pos++
	if s.pos == s.n {
		s.done.Store(true)
	}
	return s.pos < s.n, nil
}

// TestAlignmentRetainsDeferredTuples: tuples that arrive behind a barrier on
// a frozen input wait in the alignment buffer while their pages — and the
// slabs their values were built in — go back to the pools and are reused by
// everything that follows them. The buffer therefore owns clones: replayed
// after the other input's barrier, every deferred tuple still reads right.
func TestAlignmentRetainsDeferredTuples(t *testing.T) {
	const n, gateAt, nB = 6000, 8 * queue.DefaultPageSize, 10 // whole pages precede the cut: they reach the sink without a flush
	g := NewGraph()
	a := &cutSource{n: n, gateAt: gateAt}
	lateB := make([]stream.Tuple, nB)
	for i := range lateB {
		lateB[i] = intTuple(int64(-1 - i))
	}
	b := &blockingSource{schema: oneInt, tuples: lateB,
		opened: make(chan struct{}), gate: make(chan struct{}), hold: make(chan struct{})}
	close(b.hold)
	mapper := g.Add(&slabMapper{}, From(g.AddSource(a)))
	sink := NewCollector("sink", oneInt)
	g.Add(sink, From(g.Add(forward2{}, From(mapper), From(g.AddSource(b)))))

	testguard.Within(t, time.Minute, func() {
		runErr := make(chan error, 1)
		go func() { runErr <- g.Run() }()
		<-b.opened
		for sink.Count() < gateAt {
			runtime.Gosched()
		}
		chkErr := make(chan error, 1)
		go func() {
			dc, _ := local(g, snapshot.NewMemory())
			_, err := dc.CheckpointOnce(snapshot.CaptureFull)
			chkErr <- err
		}()
		// Source a is cut at gateAt and runs to its end; b is blocked inside
		// Next and cannot cut, so everything a sends after its barrier is
		// deferred at forward2 while the mapper cycles through its slabs.
		for !a.done.Load() || edgeStats(g, From(mapper)).Tuples < n {
			runtime.Gosched()
		}
		if seen := sink.Count(); seen != gateAt {
			t.Errorf("%d tuples passed a frozen input, %d precede its barrier", seen, gateAt)
		}
		close(b.gate)
		if err := <-chkErr; err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		if err := <-runErr; err != nil {
			t.Fatal(err)
		}
	})
	next := int64(0)
	for _, tp := range sink.Tuples() {
		if tp.At(0).I < 0 {
			continue // b's
		}
		if tp.Seq != next || tp.At(0) != stream.Int(mapped(next)) {
			t.Fatalf("tuple %d of the frozen input arrived as seq %d value %v, want %d", next, tp.Seq, tp.At(0), mapped(next))
		}
		next++
	}
	if next != n {
		t.Fatalf("%d of %d tuples of the frozen input arrived", next, n)
	}
}

// TestCollectorRetainsClones: the collector's record outlives every page it
// was read from, and by the end of a long run the slabs behind its first
// tuples have been rebuilt many times over.
func TestCollectorRetainsClones(t *testing.T) {
	const n = 20_000
	in := make([]stream.Tuple, n)
	for i := range in {
		in[i] = intTuple(int64(i))
	}
	g := NewGraph()
	sink := NewCollector("sink", oneInt)
	g.Add(sink, From(g.Add(&slabMapper{}, From(g.AddSource(NewSliceSource("src", oneInt, in...))))))
	gets0, misses0 := queue.SlabStats()
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != n {
		t.Fatalf("collected %d of %d", len(got), n)
	}
	for i, tp := range got {
		if tp.At(0) != stream.Int(mapped(int64(i))) {
			t.Fatalf("collected tuple %d reads %v after the run, want %d", i, tp.At(0), mapped(int64(i)))
		}
	}
	// The point of the exercise: most requests were served by a slab some
	// page had just given back. (Other tests share the counters; they only
	// ever make the run's share of misses look larger.)
	gets, misses := queue.SlabStats()
	if gets, misses = gets-gets0, misses-misses0; gets < n/DefaultControlInterval || misses > gets/2 {
		t.Errorf("%d slab requests, %d missed the pool: recycling is not happening", gets, misses)
	}
}

// TestSlabCountersExported: requests and pool misses surface beside the edge
// park counters — as global series and in the /statusz globals.
func TestSlabCountersExported(t *testing.T) {
	g := NewGraph()
	tel := telemetry.New()
	g.SetTelemetry(tel)
	src := NewSliceSource("src", oneInt, intTuple(1), intTuple(2), intTuple(3))
	sink := NewCollector("sink", oneInt)
	g.Add(sink, From(g.Add(&slabMapper{}, From(g.AddSource(src)))))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	globals := tel.Registry.Globals()
	gets, misses := queue.SlabStats()
	if gets == 0 || globals["pace_slab_gets_total"] != gets || globals["pace_slab_misses_total"] != misses {
		t.Errorf("statusz globals %v, queue counts %d gets and %d misses", globals, gets, misses)
	}
	var out bytes.Buffer
	tel.Registry.WritePrometheus(&out)
	for _, series := range []string{"pace_slab_gets_total ", "pace_slab_misses_total "} {
		if !strings.Contains(out.String(), "\n"+series) {
			t.Errorf("exposition lacks %s", series)
		}
	}
}

// failingOp and failingSource fail on first use and count their Close calls.
type failingOp struct {
	passthrough
	closed atomic.Int32
}

var errBoom = errors.New("boom")

func (f *failingOp) ProcessTuple(int, stream.Tuple, Context) error { return errBoom }
func (f *failingOp) Close(Context) error {
	f.closed.Add(1)
	return errors.New("close after failure")
}

type failingSource struct {
	stepSource
	closed atomic.Int32
}

func (f *failingSource) Next(Context) (bool, error) { return false, errBoom }
func (f *failingSource) Close(Context) error {
	f.closed.Add(1)
	return errors.New("close after failure")
}

// TestFailedNodeIsClosed: a node whose operator or source returned an error is
// closed like any other — whatever it opened (a connection, a reader
// goroutine) must not outlive the run — and the run reports the first error,
// not Close's.
func TestFailedNodeIsClosed(t *testing.T) {
	op := &failingOp{passthrough: passthrough{name: "failing"}}
	g := NewGraph()
	g.Add(NewCollector("sink", oneInt), From(g.Add(op, From(g.AddSource(NewSliceSource("src", oneInt, intTuple(1)))))))
	if err := g.Run(); !errors.Is(err, errBoom) {
		t.Errorf("run with a failing operator: %v, want %v", err, errBoom)
	}
	if n := op.closed.Load(); n != 1 {
		t.Errorf("failing operator closed %d times, want 1", n)
	}

	src := &failingSource{stepSource: stepSource{name: "failing-src"}}
	g = NewGraph()
	g.Add(NewCollector("sink", oneInt), From(g.AddSource(src)))
	if err := g.Run(); !errors.Is(err, errBoom) {
		t.Errorf("run with a failing source: %v, want %v", err, errBoom)
	}
	if n := src.closed.Load(); n != 1 {
		t.Errorf("failing source closed %d times, want 1", n)
	}
}
