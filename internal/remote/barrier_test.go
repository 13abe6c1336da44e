package remote

import (
	"encoding/binary"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// gatedSource emits tuples in small batches, parking (live, not blocked) at
// gateAt until released, so a checkpoint can be taken mid-stream.
type gatedSource struct {
	tuples []stream.Tuple
	gateAt int
	gate   atomic.Bool
	pos    atomic.Int64
}

// awaitGate blocks until the source has parked at its gate.
func (s *gatedSource) awaitGate(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.pos.Load() < int64(s.gateAt) {
		if time.Now().After(deadline) {
			t.Fatalf("source stuck at %d/%d", s.pos.Load(), s.gateAt)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *gatedSource) Name() string                                           { return "gated" }
func (s *gatedSource) OutSchemas() []stream.Schema                            { return []stream.Schema{schema} }
func (s *gatedSource) Open(exec.Context) error                                { return nil }
func (s *gatedSource) Close(exec.Context) error                               { return nil }
func (s *gatedSource) ProcessFeedback(int, core.Feedback, exec.Context) error { return nil }

func (s *gatedSource) Next(ctx exec.Context) (bool, error) {
	pos := int(s.pos.Load())
	if pos >= len(s.tuples) {
		return false, nil
	}
	for n := 0; n < 4 && pos < len(s.tuples); n++ {
		if pos == s.gateAt && !s.gate.Load() {
			time.Sleep(100 * time.Microsecond)
			break
		}
		ctx.Emit(s.tuples[pos])
		pos++
	}
	s.pos.Store(int64(pos))
	return true, nil
}

// rawWriter crafts frames straight onto a transport, bypassing Sink, so
// tests can put anything — including what Sink would never send — on the
// wire.
func rawWriter(conn net.Conn) *frameWriter { return newFrameWriter(conn, 0, new(atomic.Int64)) }

func rawTuples(w *frameWriter, ts ...stream.Tuple) error {
	for _, t := range ts {
		w.buf = t.AppendBinary(w.buf)
	}
	return w.flush(frameTuples, len(ts))
}

func rawBarrier(w *frameWriter, epoch int64) error {
	w.buf = binary.AppendVarint(w.buf, epoch)
	return w.flush(frameBarrier, 0)
}

// wireBarrier is one barrier observation on the consumer side.
type wireBarrier struct {
	epoch    int64
	received int64 // tuples decoded before the barrier frame
}

// coordinator wraps the producer subplan as a checkpoint coordinator with no
// followers: the barriers cross the wire, nobody acks them.
func coordinator(g *exec.Graph) *exec.DistCoordinator {
	b := snapshot.NewMemory()
	return exec.NewDistCoordinator(g, "producer", snapshot.NewChain(b), snapshot.NewDistLog(b))
}

// TestBarrierCrossesWire: a checkpoint on the producer graph forwards its
// barrier through the remote sink as a wire frame, positioned exactly after
// the tuples that preceded the producer's cut; the consumer source hands the
// epoch to its hook, once per checkpoint.
func TestBarrierCrossesWire(t *testing.T) {
	c1, c2 := net.Pipe()
	const total, gateAt = 600, 200
	tuples := make([]stream.Tuple, total)
	for i := range tuples {
		tuples[i] = mkTuple(int64(i%5), int64(i)*1000, 50).WithSeq(int64(i))
	}
	src := &gatedSource{tuples: tuples, gateAt: gateAt}
	sink := NewSink("wire-out", schema, c1)

	gp := exec.NewGraph()
	sp := gp.AddSource(src)
	gp.Add(sink, exec.From(sp))

	rsrc := NewSource("wire-in", schema, c2)
	barriers := make(chan wireBarrier, 4)
	rsrc.SetBarrierHook(func(epoch int64) error {
		barriers <- wireBarrier{epoch: epoch, received: counter(rsrc, "pace_remote_tuples_received_total")}
		return nil
	})
	col := exec.NewCollector("col", schema)
	gc := exec.NewGraph()
	sc := gc.AddSource(rsrc)
	gc.Add(col, exec.From(sc))

	var wg sync.WaitGroup
	var errP, errC error
	wg.Add(2)
	go func() { defer wg.Done(); errP = gp.Run() }()
	go func() { defer wg.Done(); errC = gc.Run() }()
	src.awaitGate(t)

	dc := coordinator(gp)
	epoch1, err := dc.CheckpointOnce(snapshot.CaptureFull)
	if err != nil {
		t.Fatal(err)
	}
	b1 := <-barriers
	if b1.epoch != epoch1 {
		t.Errorf("wire barrier epoch %d, producer cut epoch %d", b1.epoch, epoch1)
	}
	// The barrier's wire position is the cut: every tuple the producer sent
	// before its cut — and none after — precedes the frame.
	if b1.received != gateAt {
		t.Errorf("barrier arrived after %d tuples, producer cut at %d", b1.received, gateAt)
	}

	epoch2, err := dc.CheckpointOnce(snapshot.CaptureFull)
	if err != nil {
		t.Fatal(err)
	}
	if b2 := <-barriers; b2.epoch != epoch2 {
		t.Errorf("second barrier epoch %d, want %d", b2.epoch, epoch2)
	}

	src.gate.Store(true)
	wg.Wait()
	if errP != nil || errC != nil {
		t.Fatal(errP, errC)
	}
	if got := len(col.Tuples()); got != total {
		t.Errorf("%d tuples crossed, want %d (barrier frames corrupted the stream?)", got, total)
	}
}

// TestBarrierDroppedWithoutHook: an uncoordinated consumer skips barrier
// frames without disturbing the data stream.
func TestBarrierDroppedWithoutHook(t *testing.T) {
	c1, c2 := net.Pipe()
	const total, gateAt = 200, 100
	tuples := make([]stream.Tuple, total)
	for i := range tuples {
		tuples[i] = mkTuple(int64(i%5), int64(i)*1000, 50).WithSeq(int64(i))
	}
	src := &gatedSource{tuples: tuples, gateAt: gateAt}
	gp := exec.NewGraph()
	sp := gp.AddSource(src)
	gp.Add(NewSink("wire-out", schema, c1), exec.From(sp))

	rsrc := NewSource("wire-in", schema, c2) // no hook installed
	col := exec.NewCollector("col", schema)
	gc := exec.NewGraph()
	gc.Add(col, exec.From(gc.AddSource(rsrc)))

	var wg sync.WaitGroup
	var errP, errC error
	wg.Add(2)
	go func() { defer wg.Done(); errP = gp.Run() }()
	go func() { defer wg.Done(); errC = gc.Run() }()
	src.awaitGate(t)
	if _, err := coordinator(gp).CheckpointOnce(snapshot.CaptureFull); err != nil {
		t.Fatal(err)
	}
	src.gate.Store(true)
	wg.Wait()
	if errP != nil || errC != nil {
		t.Fatal(errP, errC)
	}
	if got := len(col.Tuples()); got != total {
		t.Errorf("%d tuples crossed, want %d", got, total)
	}
}

// TestSinkWriteDeadline: a wedged peer — connected, never reading — must
// surface as a node error within the configured write deadline instead of
// blocking the plan forever.
func TestSinkWriteDeadline(t *testing.T) {
	// The other end never reads. The failed sink is closed by the runtime
	// like any other node, which closes c1 and ends its feedback reader: the
	// leak gate in TestMain holds the test to that.
	c1, c2 := net.Pipe()
	defer c2.Close()
	tuples := make([]stream.Tuple, 64)
	for i := range tuples {
		tuples[i] = mkTuple(int64(i), int64(i)*1000, 50)
	}
	src := exec.NewSliceSource("src", schema, tuples...)
	sink := NewSink("wedged-out", schema, c1)
	sink.WriteTimeout = 50 * time.Millisecond

	g := exec.NewGraph()
	sp := g.AddSource(src)
	g.Add(sink, exec.From(sp))

	done := make(chan error, 1)
	go func() { done <- g.Run() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged peer did not surface as an error")
		}
		if !strings.Contains(err.Error(), "timeout") && !strings.Contains(err.Error(), "deadline") {
			t.Errorf("error %v does not look like a write deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("plan hung on a wedged peer despite WriteTimeout")
	}
}

// TestBarrierFrameWireRoundTrip is the property test for the barrier wire
// frames: a random interleaving of tuple, punctuation, and barrier frames
// written raw onto the transport replays through Source with every barrier
// delivered to the hook in order, carrying its exact epoch, with the
// surrounding data intact.
func TestBarrierFrameWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 30; iter++ {
		c1, c2 := net.Pipe()
		var wantBarriers []int64
		wantTuples := 0
		epoch := int64(0)
		var frames []func(*frameWriter) error
		for i := 0; i < 2+rng.Intn(60); i++ {
			switch rng.Intn(3) {
			case 0, 1:
				run := make([]stream.Tuple, 1+rng.Intn(4))
				for j := range run {
					run[j] = mkTuple(int64(i), int64(i)*1000, 50)
				}
				frames = append(frames, func(w *frameWriter) error { return rawTuples(w, run...) })
				wantTuples += len(run)
			default:
				epoch += 1 + rng.Int63n(3)
				e := epoch
				frames = append(frames, func(w *frameWriter) error { return rawBarrier(w, e) })
				wantBarriers = append(wantBarriers, e)
			}
		}
		go func() {
			w := rawWriter(c1)
			for _, f := range frames {
				if f(w) != nil {
					return
				}
			}
			w.flush(frameEOS, 0)
		}()

		rsrc := NewSource("in", schema, c2)
		var gotBarriers []int64
		rsrc.SetBarrierHook(func(epoch int64) error {
			gotBarriers = append(gotBarriers, epoch)
			return nil
		})
		tr := exec.DriveSource(rsrc)
		if tr.Err != nil {
			t.Fatalf("iteration %d: %v", iter, tr.Err)
		}
		if got := len(tr.Out[0].Tuples()); got != wantTuples {
			t.Fatalf("iteration %d: %d tuples, want %d", iter, got, wantTuples)
		}
		if len(gotBarriers) != len(wantBarriers) {
			t.Fatalf("iteration %d: %d barriers, want %d", iter, len(gotBarriers), len(wantBarriers))
		}
		for i := range wantBarriers {
			if gotBarriers[i] != wantBarriers[i] {
				t.Fatalf("iteration %d: barrier %d changed in flight: %d -> %d",
					iter, i, wantBarriers[i], gotBarriers[i])
			}
		}
	}
}

// TestBarrierFrameCorrupt: malformed input on the data path — garbage
// bytes, a byte past a barrier's epoch, a bare connection close — must
// surface as clean errors, never a panic or a silent clean EOS.
func TestBarrierFrameCorrupt(t *testing.T) {
	// A barrier frame with a byte after its epoch, as the capture mode of an
	// earlier build's frames.
	c1, c2 := net.Pipe()
	go func() {
		w := rawWriter(c1)
		w.buf = append(binary.AppendVarint(w.buf, 1), 0)
		w.flush(frameBarrier, 0)
	}()
	rsrc := NewSource("in", schema, c2)
	rsrc.SetBarrierHook(func(int64) error { return nil })
	if exec.DriveSource(rsrc).Err == nil {
		t.Error("barrier frame with a trailing byte accepted")
	}

	// Random garbage instead of a frame stream.
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		c1, c2 := net.Pipe()
		go func() {
			buf := make([]byte, 1+rng.Intn(200))
			rng.Read(buf)
			c1.Write(buf)
			c1.Close()
		}()
		if exec.DriveSource(NewSource("in", schema, c2)).Err == nil {
			t.Fatalf("iteration %d: garbage stream replayed without error", i)
		}
	}

	// A connection closed without an EOS frame is a producer crash, not a
	// clean end of stream.
	c1, c2 = net.Pipe()
	go func() {
		rawTuples(rawWriter(c1), mkTuple(1, 1000, 50))
		c1.Close()
	}()
	err := exec.DriveSource(NewSource("in", schema, c2)).Err
	if err == nil || !strings.Contains(err.Error(), "before end of stream") {
		t.Errorf("bare close surfaced as %v, want producer-crash error", err)
	}
}
