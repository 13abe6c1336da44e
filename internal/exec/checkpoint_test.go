package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// gatedSource replays tuples one per Next, idling (without blocking the
// runner loop) once it reaches gateAt until the gate is opened. It lets
// tests checkpoint a quiescent graph at a deterministic stream position.
type gatedSource struct {
	name   string
	schema stream.Schema
	tuples []stream.Tuple
	gateAt int
	gate   atomic.Bool

	pos     int
	emitted atomic.Int64
}

func (s *gatedSource) Name() string                { return s.name }
func (s *gatedSource) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *gatedSource) Open(Context) error          { return nil }
func (s *gatedSource) Close(Context) error         { return nil }
func (s *gatedSource) ProcessFeedback(int, core.Feedback, Context) error {
	return nil
}

func (s *gatedSource) Next(ctx Context) (bool, error) {
	if s.pos >= len(s.tuples) {
		return false, nil
	}
	if s.pos == s.gateAt && !s.gate.Load() {
		time.Sleep(time.Millisecond)
		return true, nil
	}
	ctx.Emit(s.tuples[s.pos])
	s.pos++
	s.emitted.Add(1)
	return true, nil
}

// CaptureState implements snapshot.Stater.
func (s *gatedSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt(pos)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *gatedSource) LoadState(dec *snapshot.Decoder) error {
	s.pos = dec.GetInt()
	return dec.Err()
}

// TestCheckpointRestoreQuiescent checkpoints a graph idling at a known
// stream position, kills it, and restores into a rebuilt plan: the union of
// pre-cut and post-restore output must be the full stream, exactly once.
func TestCheckpointRestoreQuiescent(t *testing.T) {
	const total, gateAt = 100, 60
	tuples := make([]stream.Tuple, total)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}

	build := func(gateOpen bool) (*Graph, *gatedSource, *Collector) {
		g := NewGraph()
		// Page size 1 so every emitted tuple reaches the sink immediately
		// (the gate pauses the source below one default page).
		g.SetQueueOptions(queue.Options{PageSize: 1})
		src := &gatedSource{name: "gated", schema: oneInt, tuples: tuples, gateAt: gateAt}
		src.gate.Store(gateOpen)
		sid := g.AddSource(src)
		mid := g.Add(&passthrough{name: "mid"}, From(sid))
		sink := NewCollector("sink", oneInt)
		g.Add(sink, From(mid))
		return g, src, sink
	}

	g1, src1, sink1 := build(false)
	runErr := make(chan error, 1)
	go func() { runErr <- g1.Run() }()

	// Wait for the plan to quiesce at the gate.
	for deadline := time.Now().Add(10 * time.Second); sink1.Count() < gateAt; {
		if time.Now().After(deadline) {
			t.Fatalf("sink stuck at %d/%d", sink1.Count(), gateAt)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := g1.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if src1.pos != gateAt {
		t.Fatalf("source cut at %d, want %d", src1.pos, gateAt)
	}

	// Crash: no data after the checkpoint may survive outside the snapshot.
	g1.Kill()
	if err := <-runErr; !errors.Is(err, ErrKilled) {
		t.Fatalf("Run after Kill = %v, want ErrKilled", err)
	}

	// Round-trip through a backend, then restore into a rebuilt plan.
	backend := snapshot.NewMemory()
	if err := snap.Save(backend, "ckpt"); err != nil {
		t.Fatal(err)
	}
	g2, src2, sink2 := build(true)
	if err := g2.Restore(backend, "ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	if src2.emitted.Load() != total-gateAt {
		t.Fatalf("restored source emitted %d tuples, want %d", src2.emitted.Load(), total-gateAt)
	}
	got := sink2.Tuples()
	if len(got) != total {
		t.Fatalf("restored sink has %d tuples, want %d (0 lost, 0 duplicated)", len(got), total)
	}
	for i, tp := range got {
		if tp.At(0).AsInt() != int64(i) {
			t.Fatalf("tuple %d = %v after restore", i, tp)
		}
	}
}

// summing2 is a 2-input blocking operator: it folds every input value into
// one running sum and emits a single total at EOS. Any barrier
// misalignment (a post-barrier tuple folded before the cut, or a pre-cut
// tuple replayed after restore) shows up as a wrong total.
type summing2 struct {
	Base
	sum     int64
	perIn   [2]int64
	openIns int
}

func (s *summing2) Name() string                { return "sum2" }
func (s *summing2) InSchemas() []stream.Schema  { return []stream.Schema{oneInt, oneInt} }
func (s *summing2) OutSchemas() []stream.Schema { return []stream.Schema{oneInt} }
func (s *summing2) Open(Context) error {
	s.openIns = 2
	return nil
}
func (s *summing2) ProcessTuple(input int, t stream.Tuple, _ Context) error {
	s.sum += t.At(0).AsInt()
	s.perIn[input]++
	return nil
}
func (s *summing2) ProcessEOS(int, Context) error {
	s.openIns--
	return nil
}
func (s *summing2) Close(ctx Context) error {
	if s.openIns == 0 {
		ctx.Emit(stream.NewTuple(stream.Int(s.sum)))
	}
	return nil
}

// CaptureState implements snapshot.Stater.
func (s *summing2) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	sum, perIn := s.sum, s.perIn
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(sum)
		enc.PutInt64(perIn[0])
		enc.PutInt64(perIn[1])
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *summing2) LoadState(dec *snapshot.Decoder) error {
	s.sum = dec.GetInt64()
	s.perIn[0] = dec.GetInt64()
	s.perIn[1] = dec.GetInt64()
	return dec.Err()
}

// TestCheckpointAlignsMultiInput checkpoints a 2-input stateful operator
// mid-stream (run with -race): the barrier must be aligned across both
// inputs, so kill + restore conserves the exact total. Both sources park at
// a gate, at different positions, so the checkpoint is asked for while the
// plan is running and cannot drain — not raced against 40 000 tuples with a
// retry loop — and what the sources emitted last is still on its way to the
// operator when the barriers follow it.
func TestCheckpointAlignsMultiInput(t *testing.T) {
	const n, gateA, gateB = 20_000, 7_000, 13_000
	ones := make([]stream.Tuple, n)
	for i := range ones {
		ones[i] = intTuple(1)
	}
	build := func(gatesOpen bool) (*Graph, [2]*gatedSource, *Collector) {
		g := NewGraph()
		srcs := [2]*gatedSource{
			{name: "a", schema: oneInt, tuples: ones, gateAt: gateA},
			{name: "b", schema: oneInt, tuples: ones, gateAt: gateB},
		}
		srcs[0].gate.Store(gatesOpen)
		srcs[1].gate.Store(gatesOpen)
		sum := g.Add(&summing2{}, From(g.AddSource(srcs[0])), From(g.AddSource(srcs[1])))
		sink := NewCollector("sink", oneInt)
		g.Add(sink, From(sum))
		return g, srcs, sink
	}

	g1, srcs, _ := build(false)
	runErr := make(chan error, 1)
	go func() { runErr <- g1.Run() }()
	for deadline := time.Now().Add(30 * time.Second); srcs[0].emitted.Load() < gateA || srcs[1].emitted.Load() < gateB; {
		if time.Now().After(deadline) {
			t.Fatalf("sources stuck at %d/%d and %d/%d", srcs[0].emitted.Load(), gateA, srcs[1].emitted.Load(), gateB)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := g1.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Let the stream go on before the crash: nothing after the cut may be in it.
	srcs[0].gate.Store(true)
	srcs[1].gate.Store(true)
	g1.Kill()
	if err := <-runErr; err != nil && !errors.Is(err, ErrKilled) {
		t.Fatal(err)
	}

	g2, _, sink2 := build(true)
	if err := g2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink2.Tuples()
	if len(got) != 1 {
		t.Fatalf("restored run emitted %d totals, want 1", len(got))
	}
	if total := got[0].At(0).AsInt(); total != 2*n {
		t.Fatalf("total after crash-and-recover = %d, want %d (misaligned cut)", total, 2*n)
	}
}

// TestCheckpointOfFinishedNodesUsesExitState checkpoints after the plan has
// fully drained: every node contributes the state it saved on clean exit.
func TestCheckpointAfterCleanFinish(t *testing.T) {
	g := NewGraph()
	src := NewSliceSource("src", oneInt, intTuple(1), intTuple(2))
	sid := g.AddSource(src)
	sink := NewCollector("sink", oneInt)
	g.Add(sink, From(sid))
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	// The graph is no longer running; Checkpoint must refuse rather than
	// hang (the exit-state path is only reachable while other nodes are
	// still live).
	if _, err := g.Checkpoint(context.Background()); err == nil {
		t.Fatal("checkpoint of a finished graph must fail")
	}
}

// TestRestoreValidatesPlanShape: restoring into a drifted plan must fail
// loudly at Run, not load state into the wrong operator.
func TestRestoreValidatesPlanShape(t *testing.T) {
	mkSnap := func() *snapshot.Snapshot {
		g := NewGraph()
		sid := g.AddSource(NewSliceSource("src", oneInt, intTuple(1)))
		g.Add(NewCollector("sink", oneInt), From(sid))
		runErr := make(chan error, 1)
		go func() { runErr <- g.Run() }()
		if err := <-runErr; err != nil {
			t.Fatal(err)
		}
		// Hand-build the manifest shape from the finished graph's layout.
		return &snapshot.Snapshot{Epoch: 1, Nodes: []snapshot.NodeState{
			{ID: 0, Name: "src"}, {ID: 1, Name: "sink"},
		}}
	}
	snap := mkSnap()

	// Renamed node → drift error.
	g := NewGraph()
	sid := g.AddSource(NewSliceSource("other", oneInt, intTuple(1)))
	g.Add(NewCollector("sink", oneInt), From(sid))
	if err := g.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err == nil {
		t.Fatal("drifted plan accepted")
	}

	// Extra node → count mismatch.
	g2 := NewGraph()
	sid = g2.AddSource(NewSliceSource("src", oneInt, intTuple(1)))
	mid := g2.Add(&passthrough{name: "mid"}, From(sid))
	g2.Add(NewCollector("sink", oneInt), From(mid))
	if err := g2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := g2.Run(); err == nil {
		t.Fatal("plan with extra node accepted")
	}

	// Restore after Run is rejected.
	g3 := NewGraph()
	sid = g3.AddSource(NewSliceSource("src", oneInt, intTuple(1)))
	g3.Add(NewCollector("sink", oneInt), From(sid))
	if err := g3.Run(); err != nil {
		t.Fatal(err)
	}
	if err := g3.RestoreSnapshot(snap); err == nil {
		t.Fatal("restore into an already-run graph accepted")
	}
}

// TestCheckpointNotRunning pins the error paths around the run lifecycle.
func TestCheckpointNotRunning(t *testing.T) {
	g := NewGraph()
	sid := g.AddSource(NewSliceSource("src", oneInt, intTuple(1)))
	g.Add(NewCollector("sink", oneInt), From(sid))
	if _, err := g.Checkpoint(context.Background()); err == nil {
		t.Fatal("checkpoint before Run must fail")
	}
	// Kill before Run is a no-op.
	g.Kill()
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
}

// blockingSource emits nothing until its gate is closed, blocking inside
// Next — the one shape of source that cannot poll for a pending
// checkpoint, which is how a checkpoint comes to be cancelled with
// barriers already injected elsewhere. Its last tuple waits for a second
// gate, hold, without blocking: Next returns empty-handed until hold is
// closed, so the source keeps cutting for checkpoints but cannot end.
// opened is closed by Open, which the runner calls once the graph runs.
type blockingSource struct {
	schema             stream.Schema
	tuples             []stream.Tuple
	opened, gate, hold chan struct{}
	pos                int
}

func (s *blockingSource) Name() string                { return "blocking" }
func (s *blockingSource) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *blockingSource) Open(Context) error          { close(s.opened); return nil }
func (s *blockingSource) Close(Context) error         { return nil }
func (s *blockingSource) ProcessFeedback(int, core.Feedback, Context) error {
	return nil
}

func (s *blockingSource) Next(ctx Context) (bool, error) {
	<-s.gate
	if s.pos >= len(s.tuples) {
		return false, nil
	}
	if s.pos == len(s.tuples)-1 {
		select {
		case <-s.hold:
		default:
			runtime.Gosched()
			return true, nil
		}
	}
	ctx.Emit(s.tuples[s.pos])
	s.pos++
	return true, nil
}

// CaptureState implements snapshot.Stater.
func (s *blockingSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt(pos)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *blockingSource) LoadState(dec *snapshot.Decoder) error {
	s.pos = dec.GetInt()
	return dec.Err()
}

// TestCheckpointCancelThenRetry: a checkpoint cancelled with barriers
// already injected at one source must not wedge the plan — the stale
// alignment's freeze is lifted, a later checkpoint succeeds, and recovery
// from it conserves the exact total (regression test for the stale-barrier
// epoch-mismatch kill).
func TestCheckpointCancelThenRetry(t *testing.T) {
	const nA, nB = 30_000, 5_000
	mk := func(n int) []stream.Tuple {
		ts := make([]stream.Tuple, n)
		for i := range ts {
			ts[i] = intTuple(1)
		}
		return ts
	}
	build := func(gatesOpen bool) (*Graph, *blockingSource, *Collector) {
		g := NewGraph()
		a := &SliceSource{SourceName: "a", Schema: oneInt, Tuples: mk(nA), BatchSize: 4}
		bsrc := &blockingSource{schema: oneInt, tuples: mk(nB),
			opened: make(chan struct{}), gate: make(chan struct{}), hold: make(chan struct{})}
		if gatesOpen {
			close(bsrc.gate)
			close(bsrc.hold)
		}
		sa, sb := g.AddSource(a), g.AddSource(bsrc)
		sum := g.Add(&summing2{}, From(sa), From(sb))
		sink := NewCollector("sink", oneInt)
		g.Add(sink, From(sum))
		return g, bsrc, sink
	}

	g1, blocked, _ := build(false)
	runErr := make(chan error, 1)
	go func() { runErr <- g1.Run() }()

	// Checkpoint 1: source "a" injects its barrier, "blocking" never does;
	// the checkpoint must time out, leaving a stale partial alignment at
	// the summing operator. (Asked for before the graph runs, it would be
	// refused instead, and nothing below would be tested.)
	<-blocked.opened
	ctx1, cancel1 := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel1()
	if _, err := g1.Checkpoint(ctx1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("checkpoint with a blocked source: %v, want a timeout", err)
	}

	// Release the blocked source and retry: the stale freeze must lift and
	// the new epoch must complete. The source's last tuple stays held until
	// it has — 35 k tuples can drain in less time than the retry takes to
	// land, and a plan that has finished cannot be checkpointed.
	close(blocked.gate)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	var snap *snapshot.Snapshot
	for {
		s, err := g1.Checkpoint(ctx2)
		if err == nil {
			snap = s
			break
		}
		if ctx2.Err() != nil {
			t.Fatalf("checkpoint after cancel never succeeded: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	close(blocked.hold)
	g1.Kill()
	if err := <-runErr; err != nil && !errors.Is(err, ErrKilled) {
		t.Fatal(err)
	}

	g2, _, sink2 := build(true)
	if err := g2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink2.Tuples()
	if len(got) != 1 {
		t.Fatalf("restored run emitted %d totals, want 1", len(got))
	}
	if total := got[0].At(0).AsInt(); total != nA+nB {
		t.Fatalf("total after cancel-retry-recover = %d, want %d", total, nA+nB)
	}
}
