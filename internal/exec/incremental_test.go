package exec

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// limitedSource emits tuples up to an externally raised limit, then parks
// live; it checkpoints its position (two-phase).
type limitedSource struct {
	schema stream.Schema
	total  int64
	limit  atomic.Int64
	pos    atomic.Int64
}

func (s *limitedSource) Name() string                { return "limited" }
func (s *limitedSource) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *limitedSource) Open(Context) error          { return nil }
func (s *limitedSource) Close(Context) error         { return nil }
func (s *limitedSource) ProcessFeedback(int, core.Feedback, Context) error {
	return nil
}

func (s *limitedSource) Next(ctx Context) (bool, error) {
	pos := s.pos.Load()
	if pos >= s.total {
		return false, nil
	}
	limit := s.limit.Load()
	if limit > s.total {
		limit = s.total
	}
	if pos >= limit {
		time.Sleep(100 * time.Microsecond)
		return true, nil
	}
	for n := 0; n < 16 && pos < limit; n++ {
		ctx.Emit(stream.NewTuple(stream.Int(pos), stream.Int(pos*2)).WithSeq(pos))
		pos++
	}
	s.pos.Store(pos)
	return true, nil
}

// CaptureState implements snapshot.Stater.
func (s *limitedSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos.Load()
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(pos)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *limitedSource) LoadState(dec *snapshot.Decoder) error {
	s.pos.Store(dec.GetInt64())
	return dec.Err()
}

func (s *limitedSource) waitPos(t *testing.T, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.pos.Load() < want; {
		if time.Now().After(deadline) {
			t.Fatalf("source stuck at %d/%d", s.pos.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

var incrSchema = stream.MustSchema(stream.F("a", stream.KindInt), stream.F("b", stream.KindInt))

// TestIncrementalCheckpointChainRestore drives the full incremental path:
// full checkpoint, two deltas (the Collector's contribution must actually
// be a delta), kill, restore base+deltas from a chain, run to completion —
// and the recovered record equals the uninterrupted run exactly.
func TestIncrementalCheckpointChainRestore(t *testing.T) {
	const total = 400
	build := func(open bool) (*Graph, *limitedSource, *Collector) {
		src := &limitedSource{schema: incrSchema, total: total}
		if open {
			src.limit.Store(total)
		}
		sink := NewCollector("sink", incrSchema)
		g := NewGraph()
		id := g.AddSource(src)
		g.Add(sink, From(id))
		return g, src, sink
	}

	// Uninterrupted reference.
	gRef, _, sinkRef := build(true)
	if err := gRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := sinkRef.Tuples()
	if len(want) != total {
		t.Fatalf("reference run recorded %d tuples", len(want))
	}

	g1, src1, _ := build(false)
	runErr := make(chan error, 1)
	go func() { runErr <- g1.Run() }()
	backend := snapshot.NewMemory()
	dc1, chain := local(g1, backend)

	var snaps []*snapshot.Snapshot
	for i, stop := range []int64{250, 280, 310} {
		src1.limit.Store(stop)
		src1.waitPos(t, stop)
		mode := snapshot.CaptureDelta
		if i == 0 {
			mode = snapshot.CaptureFull
		}
		snaps = append(snaps, cut(t, dc1, chain, mode))
	}
	g1.Kill()
	if err := <-runErr; !errors.Is(err, ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	// Shape assertions: the first snapshot is a base, the rest chain off
	// their predecessors, and the sink's later contributions are deltas
	// substantially smaller than its base state.
	if !snaps[0].IsFull() || snaps[1].Base != snaps[0].Epoch || snaps[2].Base != snaps[1].Epoch {
		t.Fatalf("chain lineage wrong: epochs %d/%d/%d bases %d/%d/%d",
			snaps[0].Epoch, snaps[1].Epoch, snaps[2].Epoch, snaps[0].Base, snaps[1].Base, snaps[2].Base)
	}
	sinkBase := snaps[0].Nodes[1]
	sinkDelta := snaps[2].Nodes[1]
	if sinkDelta.Delta != true {
		t.Fatal("collector contribution to incremental snapshot is not a delta")
	}
	if len(sinkDelta.State) >= len(sinkBase.State) {
		t.Fatalf("delta blob (%dB) not smaller than base (%dB)", len(sinkDelta.State), len(sinkBase.State))
	}

	// Restore the chain into a rebuilt plan and finish the stream.
	g2, _, sink2 := build(true)
	restoreLocal(t, g2, backend)
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink2.Tuples()
	if len(got) != len(want) {
		t.Fatalf("recovered run recorded %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Seq != want[i].Seq {
			t.Fatalf("tuple %d diverged: %v vs %v", i, got[i], want[i])
		}
	}

	// A post-restore incremental checkpoint chains off the restored epoch
	// — but the plan has finished, so only validate the epoch resume via
	// the recorded statuses of g2 (none taken) and chain state.
	latest, okL, err := chain.LatestEpoch()
	if err != nil || !okL || latest != snaps[2].Epoch {
		t.Fatalf("chain latest = %d ok=%v err=%v", latest, okL, err)
	}
}

// slowCapSource is a source whose Encode blocks until released —
// the probe for "the barrier does not wait for encoding".
type slowCapSource struct {
	limitedSource
	encodeStarted chan struct{}
	release       chan struct{}
}

// CaptureState implements snapshot.Stater.
func (s *slowCapSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos.Load()
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		select {
		case s.encodeStarted <- struct{}{}:
		default:
		}
		<-s.release
		enc.PutInt64(pos)
		return nil
	}}, nil
}

// TestEncodeRunsOffTheBarrier: while a checkpoint's phase-2 encoding is
// stuck, the stream must keep flowing — tuples emitted after the barrier
// reach the sink before the snapshot exists.
func TestEncodeRunsOffTheBarrier(t *testing.T) {
	src := &slowCapSource{
		limitedSource: limitedSource{schema: incrSchema, total: 100_000},
		encodeStarted: make(chan struct{}, 1),
		release:       make(chan struct{}),
	}
	src.limit.Store(1000)
	sink := NewCollector("sink", incrSchema)
	sink.Discard = true
	g := NewGraph()
	id := g.AddSource(src)
	g.Add(sink, From(id))
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	src.waitPos(t, 1000)

	chain := snapshot.NewChain(snapshot.NewMemory())
	c, err := g.trigger(0, snapshot.CaptureFull, chain)
	if err != nil {
		t.Fatal(err)
	}
	epoch := c.epoch
	select {
	case <-src.encodeStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("encode never started")
	}
	// Encoding is now blocked. The stream must still make progress past
	// the barrier.
	src.limit.Store(5000)
	src.waitPos(t, 5000)
	if _, ok := g.checkpointStatus(epoch); ok {
		t.Fatal("checkpoint reported done while its encode is still blocked")
	}
	// A delta triggered while its parent is still encoding must chain to
	// that parent — the capture baseline — not to the last finished epoch.
	c2, err := g.trigger(0, snapshot.CaptureDelta, chain)
	if err != nil {
		t.Fatal(err)
	}
	epoch2 := c2.epoch
	close(src.release)
	g.WaitCheckpoints()
	st, ok := g.checkpointStatus(epoch)
	if !ok || st.Err != nil {
		t.Fatalf("checkpoint status after release: ok=%v %+v", ok, st)
	}
	st2, ok := g.checkpointStatus(epoch2)
	if !ok || st2.Err != nil {
		t.Fatalf("delta checkpoint status: ok=%v %+v", ok, st2)
	}
	if st2.Base != epoch {
		t.Fatalf("delta base = %d, want still-encoding parent %d", st2.Base, epoch)
	}
	if snaps, err := chain.ChainFor(epoch2); err != nil || len(snaps) != 2 {
		t.Fatalf("delta chain does not resolve through its parent: %v (len %d)", err, len(snaps))
	}
	if st.BarrierHold > time.Second {
		t.Fatalf("barrier hold %v includes the blocked encode", st.BarrierHold)
	}
	g.Kill()
	if err := <-runErr; !errors.Is(err, ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}
}

// flakyBackend refuses the writes refuse picks — a disk that loses one.
type flakyBackend struct {
	*snapshot.Memory
	refuse func(id string) bool
}

func (f flakyBackend) Put(id string, data []byte) error {
	if f.refuse(id) {
		return fmt.Errorf("disk full writing %s", id)
	}
	return f.Memory.Put(id, data)
}

// TestDeltaAfterFailedEpochUpgradesToFull: an epoch that fails after its
// capture has drained the operators' changelogs into a snapshot nothing
// holds, so the next incremental checkpoint must silently upgrade to a full
// one — and the one after that is a delta again.
func TestDeltaAfterFailedEpochUpgradesToFull(t *testing.T) {
	src := &limitedSource{schema: incrSchema, total: 100_000}
	src.limit.Store(500)
	sink := NewCollector("sink", incrSchema)
	sink.Discard = true
	g := NewGraph()
	g.Add(sink, From(g.AddSource(src)))
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	src.waitPos(t, 500)

	lost := snapshot.IDFor(2, 1)
	dc, chain := local(g, flakyBackend{snapshot.NewMemory(), func(id string) bool { return id == lost }})
	base := cut(t, dc, chain, snapshot.CaptureFull)
	src.limit.Store(1000)
	src.waitPos(t, 1000)
	if epoch, err := dc.CheckpointOnce(snapshot.CaptureDelta); err == nil || epoch != base.Epoch+1 {
		t.Fatalf("epoch %d over a refused write: err=%v, want epoch %d abandoned", epoch, err, base.Epoch+1)
	}
	snap := cut(t, dc, chain, snapshot.CaptureDelta)
	if !snap.IsFull() {
		t.Fatalf("incremental checkpoint after a failed epoch is a delta (base %d)", snap.Base)
	}
	if snap2 := cut(t, dc, chain, snapshot.CaptureDelta); snap2.Base != snap.Epoch {
		t.Fatalf("delta after recovery chains to %d, want %d", snap2.Base, snap.Epoch)
	}
	if dc.CommittedEpoch() != snap.Epoch+1 {
		t.Fatalf("committed epoch %d, want %d", dc.CommittedEpoch(), snap.Epoch+1)
	}
	g.Kill()
	<-runErr
}

// TestReaderSourceReplayFromOffset: the decoder's byte offset is the
// replay position — a run checkpointed mid-file, killed, and restored over
// a fresh reader of the same bytes produces the identical record.
func TestReaderSourceReplayFromOffset(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("# fixture with comments and blank lines\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", i, i*3)
		if i%97 == 0 {
			csv.WriteString("\n# interior comment\n")
		}
	}
	data := csv.String()
	mk := func() *ReaderSource {
		return NewReaderSource("rdr", incrSchema, strings.NewReader(data))
	}

	run := func(src *ReaderSource, restoreFrom snapshot.Backend, throttle bool) (*Collector, *Graph, chan error) {
		sink := NewCollector("sink", incrSchema)
		if throttle {
			sink.OnTuple = func(stream.Tuple) { time.Sleep(20 * time.Microsecond) }
		}
		g := NewGraph()
		id := g.AddSource(src)
		g.Add(sink, From(id))
		if restoreFrom != nil {
			restoreLocal(t, g, restoreFrom)
		}
		errCh := make(chan error, 1)
		go func() { errCh <- g.Run() }()
		return sink, g, errCh
	}

	// Uninterrupted reference.
	sinkRef, _, errRef := run(mk(), nil, false)
	if err := <-errRef; err != nil {
		t.Fatal(err)
	}
	want := sinkRef.Tuples()
	if len(want) != 3000 {
		t.Fatalf("reference decoded %d tuples", len(want))
	}

	// Interrupted run: checkpoint somewhere in the middle of the file.
	sink1, g1, err1 := run(mk(), nil, true)
	for deadline := time.Now().Add(10 * time.Second); sink1.Count() < 700; {
		if time.Now().After(deadline) {
			t.Fatal("sink stuck")
		}
		time.Sleep(100 * time.Microsecond)
	}
	backend := snapshot.NewMemory()
	dc1, _ := local(g1, backend)
	if _, err := dc1.CheckpointOnce(snapshot.CaptureFull); err != nil {
		t.Fatal(err)
	}
	g1.Kill()
	if err := <-err1; err != nil && !errors.Is(err, ErrKilled) {
		t.Fatal(err)
	}

	sink2, _, err2 := run(mk(), backend, false)
	if err := <-err2; err != nil {
		t.Fatal(err)
	}
	got := sink2.Tuples()
	if len(got) != len(want) {
		t.Fatalf("recovered run decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Seq != want[i].Seq {
			t.Fatalf("tuple %d diverged: %v vs %v", i, got[i], want[i])
		}
	}
}
