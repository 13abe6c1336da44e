package exec

import (
	"context"
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
	chain := snapshot.NewChain(snapshot.NewMemory())
	ctx := context.Background()

	var snaps []*snapshot.Snapshot
	for i, stop := range []int64{250, 280, 310} {
		src1.limit.Store(stop)
		src1.waitPos(t, stop)
		var (
			snap *snapshot.Snapshot
			err  error
		)
		if i == 0 {
			snap, err = g1.Checkpoint(ctx)
		} else {
			snap, err = g1.CheckpointIncremental(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chain.Put(snap); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
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
	ok, err := g2.RestoreLatest(chain)
	if err != nil || !ok {
		t.Fatalf("RestoreLatest: ok=%v err=%v", ok, err)
	}
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
	epoch, err := g.CheckpointInto(chain, snapshot.CaptureFull)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-src.encodeStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("encode never started")
	}
	// Encoding is now blocked. The stream must still make progress past
	// the barrier.
	src.limit.Store(5000)
	src.waitPos(t, 5000)
	if _, ok := g.CheckpointStatus(epoch); ok {
		t.Fatal("checkpoint reported done while its encode is still blocked")
	}
	// A delta triggered while its parent is still encoding must chain to
	// that parent — the capture baseline — not to the last finished epoch.
	epoch2, err := g.CheckpointInto(chain, snapshot.CaptureDelta)
	if err != nil {
		t.Fatal(err)
	}
	close(src.release)
	g.WaitCheckpoints()
	st, ok := g.CheckpointStatus(epoch)
	if !ok || st.Err != nil || !st.Persisted {
		t.Fatalf("checkpoint status after release: ok=%v %+v", ok, st)
	}
	st2, ok := g.CheckpointStatus(epoch2)
	if !ok || st2.Err != nil || !st2.Persisted {
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

// TestIncrementalUpgradesAfterCancel: a cancelled checkpoint may have
// drained some operators' changelogs, so the next incremental checkpoint
// must silently upgrade to a full snapshot.
func TestIncrementalUpgradesAfterCancel(t *testing.T) {
	src := &limitedSource{schema: incrSchema, total: 100_000}
	src.limit.Store(500)
	stuck := &stuckSource{schema: incrSchema, hold: make(chan struct{})}
	sink := NewCollector("sink", incrSchema)
	sink.Discard = true
	sink2 := NewCollector("sink2", incrSchema)
	sink2.Discard = true
	g := NewGraph()
	a := g.AddSource(src)
	b := g.AddSource(stuck)
	g.Add(sink, From(a))
	g.Add(sink2, From(b))
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	src.waitPos(t, 500)

	// Baseline full checkpoint while both sources can cut.
	ctx := context.Background()
	if _, err := g.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Park the second source inside Next so it can never cut, then let an
	// incremental checkpoint time out: src has already drained its
	// changelog into the lost capture.
	stuck.block.Store(true)
	for !stuck.blocked.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	src.limit.Store(1000)
	ctx2, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := g.CheckpointIncremental(ctx2); err == nil {
		t.Fatal("checkpoint with a stuck source did not cancel")
	}
	close(stuck.hold)

	snap, err := g.CheckpointIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.IsFull() {
		t.Fatalf("post-cancel incremental checkpoint is a delta (base %d)", snap.Base)
	}
	// And the next one is a delta again.
	snap2, err := g.CheckpointIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Base != snap.Epoch {
		t.Fatalf("delta after recovery chains to %d, want %d", snap2.Base, snap.Epoch)
	}
	g.Kill()
	<-runErr
}

// TestAbandonedChainlessCheckpointBreaksLineage: a blocking
// CheckpointIncremental whose caller gives up after the capture phase has
// completed loses the assembled snapshot (nobody else holds it), so the
// next incremental checkpoint must upgrade to full instead of chaining to
// the epoch the caller never received.
func TestAbandonedChainlessCheckpointBreaksLineage(t *testing.T) {
	src := &slowCapSource{
		limitedSource: limitedSource{schema: incrSchema, total: 100_000},
		encodeStarted: make(chan struct{}, 4),
		release:       make(chan struct{}, 4),
	}
	src.limit.Store(500)
	sink := NewCollector("sink", incrSchema)
	sink.Discard = true
	g := NewGraph()
	id := g.AddSource(src)
	g.Add(sink, From(id))
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	src.waitPos(t, 500)

	src.release <- struct{}{}
	if _, err := g.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Delta whose encode never gets a token before the caller times out:
	// captures complete, the finisher hangs, the caller abandons.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := g.CheckpointIncremental(ctx); err == nil {
		t.Fatal("blocked encode did not time out")
	}
	src.release <- struct{}{}
	g.WaitCheckpoints()

	src.release <- struct{}{}
	snap, err := g.CheckpointIncremental(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !snap.IsFull() {
		t.Fatalf("checkpoint after abandoned epoch is a delta (base %d) — chains to a snapshot nobody holds", snap.Base)
	}
	g.Kill()
	<-runErr
}

// stuckSource emits nothing; when block is set it parks *inside* Next
// until hold closes, so no barrier can be injected.
type stuckSource struct {
	schema  stream.Schema
	block   atomic.Bool
	blocked atomic.Bool
	hold    chan struct{}
}

func (s *stuckSource) Name() string                { return "stuck" }
func (s *stuckSource) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *stuckSource) Open(Context) error          { return nil }
func (s *stuckSource) Close(Context) error         { return nil }
func (s *stuckSource) ProcessFeedback(int, core.Feedback, Context) error {
	return nil
}

func (s *stuckSource) Next(Context) (bool, error) {
	if s.block.Load() {
		s.blocked.Store(true)
		<-s.hold
		s.block.Store(false)
	}
	time.Sleep(100 * time.Microsecond)
	return true, nil
}

// CaptureState implements snapshot.Stater.
func (s *stuckSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	return snapshot.Capture{}, nil
}

// LoadState implements snapshot.Stater.
func (s *stuckSource) LoadState(dec *snapshot.Decoder) error { return nil }

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

	run := func(src *ReaderSource, restoreFrom *snapshot.Snapshot, throttle bool) (*Collector, *Graph, chan error) {
		sink := NewCollector("sink", incrSchema)
		if throttle {
			sink.OnTuple = func(stream.Tuple) { time.Sleep(20 * time.Microsecond) }
		}
		g := NewGraph()
		id := g.AddSource(src)
		g.Add(sink, From(id))
		if restoreFrom != nil {
			if err := g.RestoreSnapshot(restoreFrom); err != nil {
				t.Fatal(err)
			}
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
	snap, err := g1.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g1.Kill()
	if err := <-err1; err != nil && !errors.Is(err, ErrKilled) {
		t.Fatal(err)
	}

	sink2, _, err2 := run(mk(), snap, false)
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
