package exec

import (
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// local wraps g as the coordinator a single-process run uses — no followers
// — over one backend, so a rebuilt plan given the same backend restores what
// the first committed.
func local(g *Graph, backend snapshot.Backend) (*DistCoordinator, *snapshot.Chain) {
	chain := snapshot.NewChain(backend)
	return NewDistCoordinator(g, "local", chain, snapshot.NewDistLog(backend)), chain
}

// cut takes one checkpoint and reads it back from the chain.
func cut(t testing.TB, dc *DistCoordinator, chain *snapshot.Chain, mode snapshot.CaptureMode) *snapshot.Snapshot {
	t.Helper()
	epoch, err := dc.CheckpointOnce(mode)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := chain.ChainFor(epoch)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// restoreLocal stages the newest cut committed to backend on a rebuilt g.
func restoreLocal(t testing.TB, g *Graph, backend snapshot.Backend) *DistCoordinator {
	t.Helper()
	dc, _ := local(g, backend)
	if ok, err := dc.RestoreCommitted(); err != nil || !ok {
		t.Fatalf("RestoreCommitted: ok=%v err=%v", ok, err)
	}
	return dc
}

// statusOf returns the newest recorded outcome for one epoch.
func statusOf(g *Graph, epoch int64) (CheckpointStatus, bool) {
	sts := g.CheckpointStatuses()
	for i := len(sts) - 1; i >= 0; i-- {
		if sts[i].Epoch == epoch {
			return sts[i], true
		}
	}
	return CheckpointStatus{}, false
}

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

	backend := snapshot.NewMemory()
	dc1, _ := local(g1, backend)
	if _, err := dc1.CheckpointOnce(snapshot.CaptureFull); err != nil {
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

	// Restore into a rebuilt plan from what the backend holds.
	g2, src2, sink2 := build(true)
	restoreLocal(t, g2, backend)
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

	backend := snapshot.NewMemory()
	dc1, _ := local(g1, backend)
	if _, err := dc1.CheckpointOnce(snapshot.CaptureFull); err != nil {
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
	restoreLocal(t, g2, backend)
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
	// The graph is no longer running; a checkpoint must be refused rather
	// than hang (the exit-state path is only reachable while other nodes
	// are still live).
	dc, _ := local(g, snapshot.NewMemory())
	if _, err := dc.CheckpointOnce(snapshot.CaptureFull); err == nil {
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
	if err := g.RestoreChain(snap); err != nil {
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
	if err := g2.RestoreChain(snap); err != nil {
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
	if err := g3.RestoreChain(snap); err == nil {
		t.Fatal("restore into an already-run graph accepted")
	}
}

// TestRestoreRefusesTrailingBytes: a node blob with a byte past what its
// Stater reads fails the restore with an error naming the node: its writer
// and its reader disagree on the layout.
func TestRestoreRefusesTrailingBytes(t *testing.T) {
	encode := func(st snapshot.Stater) []byte {
		enc := snapshot.NewEncoder()
		if err := snapshot.EncodeCapture(st, enc); err != nil {
			t.Fatal(err)
		}
		blob, err := enc.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	src, sink := NewSliceSource("src", oneInt, intTuple(1), intTuple(2)), NewCollector("sink", oneInt)
	g := NewGraph()
	g.Add(sink, From(g.AddSource(src)))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	srcBlob, sinkBlob := encode(src), encode(sink)

	for _, tc := range []struct {
		node      string
		src, sink []byte
	}{
		{`"src"`, append(srcBlob, 0), sinkBlob},
		{`"sink"`, srcBlob, append(sinkBlob, 0)},
	} {
		t.Run(tc.node, func(t *testing.T) {
			g := NewGraph()
			sid := g.AddSource(NewSliceSource("src", oneInt, intTuple(1), intTuple(2)))
			g.Add(NewCollector("sink", oneInt), From(sid))
			snap := &snapshot.Snapshot{Epoch: 1, Nodes: []snapshot.NodeState{
				{ID: 0, Name: "src", State: tc.src},
				{ID: 1, Name: "sink", State: tc.sink},
			}}
			if err := g.RestoreChain(snap); err != nil {
				t.Fatal(err)
			}
			err := g.Run()
			if err == nil || !strings.Contains(err.Error(), tc.node) || !strings.Contains(err.Error(), "1 byte") {
				t.Fatalf("restore of a blob with a trailing byte: %v, want an error naming %s and the 1 byte left", err, tc.node)
			}
		})
	}
}

// TestCheckpointNotRunning pins the error paths around the run lifecycle.
func TestCheckpointNotRunning(t *testing.T) {
	g := NewGraph()
	sid := g.AddSource(NewSliceSource("src", oneInt, intTuple(1)))
	g.Add(NewCollector("sink", oneInt), From(sid))
	dc, _ := local(g, snapshot.NewMemory())
	if _, err := dc.CheckpointOnce(snapshot.CaptureFull); err == nil {
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
// checkpoint, which is how an alignment comes to wait behind barriers
// already injected elsewhere. Its last tuple waits for a second
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
	c, err := g.trigger(0, chain)
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
	if _, ok := statusOf(g, epoch); ok {
		t.Fatal("checkpoint reported done while its encode is still blocked")
	}
	// A second cut taken while the first still encodes persists after it:
	// chain writes land in epoch order.
	c2, err := g.trigger(0, chain)
	if err != nil {
		t.Fatal(err)
	}
	epoch2 := c2.epoch
	close(src.release)
	g.WaitCheckpoints()
	st, ok := statusOf(g, epoch)
	if !ok || st.Err != nil {
		t.Fatalf("checkpoint status after release: ok=%v %+v", ok, st)
	}
	if st2, ok := statusOf(g, epoch2); !ok || st2.Err != nil {
		t.Fatalf("second checkpoint status: ok=%v %+v", ok, st2)
	}
	if statuses := g.CheckpointStatuses(); len(statuses) != 2 || statuses[0].Epoch != epoch {
		t.Fatalf("statuses %+v, want epoch %d finished first", statuses, epoch)
	}
	if latest, _, err := chain.LatestEpoch(); err != nil || latest != epoch2 {
		t.Fatalf("chain latest = %d (%v), want %d", latest, err, epoch2)
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

// digest folds a record's tuples, values and sequence numbers, in order,
// into one number: two runs that record the same stream read the same.
func digest(ts []stream.Tuple) uint32 {
	var b []byte
	for _, tp := range ts {
		b = tp.AppendBinary(b)
	}
	return crc32.ChecksumIEEE(b)
}

// TestCheckpointAfterLostEpochs: every cut is full, so an epoch lost before
// it committed — its write refused, or superseded by a newer epoch while a
// node had not cut it — leaves nothing the next cut depends on. Whatever
// was lost, the next committed epoch restores to the digest of the
// uninterrupted run.
func TestCheckpointAfterLostEpochs(t *testing.T) {
	const total, first, stallAt, last = 400, 250, 300, 350
	// build returns a plan whose source stops at first until its limit is
	// raised. With stall set, the sink blocks inside the tuple of sequence
	// stallAt, after closing stalled, until stall is closed: a node that
	// cannot cut, so the epoch it owes stays pending.
	build := func(open bool, stall, stalled chan struct{}) (*Graph, *limitedSource, *Collector) {
		src := &limitedSource{schema: incrSchema, total: total}
		src.limit.Store(first)
		if open {
			src.limit.Store(total)
		}
		sink := NewCollector("sink", incrSchema)
		if stall != nil {
			sink.OnTuple = func(tp stream.Tuple) {
				if tp.Seq == stallAt {
					close(stalled)
					<-stall
				}
			}
		}
		g := NewGraph()
		g.Add(sink, From(g.AddSource(src)))
		return g, src, sink
	}
	gRef, _, sinkRef := build(true, nil, nil)
	if err := gRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := digest(sinkRef.Tuples())

	for _, tc := range []struct {
		name              string
		failed, supersede bool
	}{
		{name: "none lost"},
		{name: "failed", failed: true},
		{name: "failed then superseded", failed: true, supersede: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stall, stalled chan struct{}
			if tc.supersede {
				stall, stalled = make(chan struct{}), make(chan struct{})
			}
			g1, src1, _ := build(false, stall, stalled)
			runErr := make(chan error, 1)
			go func() { runErr <- g1.Run() }()
			mem := snapshot.NewMemory()
			dc, chain := local(g1, flakyBackend{mem, func(id string) bool { return tc.failed && id == snapshot.IDFor(2) }})
			src1.waitPos(t, first)
			epoch, err := dc.CheckpointOnce(snapshot.CaptureFull)
			if err != nil {
				t.Fatal(err)
			}
			if tc.failed {
				if epoch, err = dc.CheckpointOnce(snapshot.CaptureFull); err == nil {
					t.Fatalf("epoch %d over a refused write committed", epoch)
				}
			}
			src1.limit.Store(last)
			if tc.supersede {
				<-stalled
				pending, err := g1.checkpointAt(epoch+1, chain)
				if err != nil || pending == nil {
					t.Fatalf("epoch %d: %v", epoch+1, err)
				}
				newer, err := g1.checkpointAt(epoch+2, chain)
				if err != nil || newer == nil {
					t.Fatalf("epoch %d: %v", epoch+2, err)
				}
				<-pending.done
				if st, _ := statusOf(g1, epoch+1); st.Err == nil || !strings.Contains(st.Err.Error(), "superseded") {
					t.Fatalf("epoch %d: %+v, want superseded", epoch+1, st)
				}
				close(stall)
				<-newer.done
			}
			src1.waitPos(t, last)
			// Asked for as a delta, the cut is full all the same: it is all
			// the restore below loads.
			committed, err := dc.CheckpointOnce(snapshot.CaptureDelta)
			if err != nil {
				t.Fatal(err)
			}
			g1.Kill()
			if err := <-runErr; !errors.Is(err, ErrKilled) {
				t.Fatalf("killed run returned %v", err)
			}

			g2, _, sink2 := build(true, nil, nil)
			if dc2 := restoreLocal(t, g2, mem); dc2.CommittedEpoch() != committed {
				t.Fatalf("restored epoch %d, want %d", dc2.CommittedEpoch(), committed)
			}
			if err := g2.Run(); err != nil {
				t.Fatal(err)
			}
			if got := sink2.Tuples(); len(got) != total || digest(got) != want {
				t.Fatalf("restored run recorded %d tuples, digest %08x; want %d, %08x", len(got), digest(got), total, want)
			}
		})
	}
}

// TestRefusedCommitAbandonsEpoch: the coordinator's manifest write is the
// commit. When the backend refuses it, the epoch is abandoned although its
// snapshot is stored: the run goes on, the next epoch commits, and a restore
// in between loads the last committed epoch and drops the orphaned snapshot.
func TestRefusedCommitAbandonsEpoch(t *testing.T) {
	const total, first, last = 400, 250, 350
	build := func(limit int64) (*Graph, *limitedSource, *Collector) {
		src := &limitedSource{schema: incrSchema, total: total}
		src.limit.Store(limit)
		sink := NewCollector("sink", incrSchema)
		g := NewGraph()
		g.Add(sink, From(g.AddSource(src)))
		return g, src, sink
	}
	gRef, _, sinkRef := build(total)
	if err := gRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := digest(sinkRef.Tuples())

	for _, tc := range []struct {
		name     string
		goesOn   bool
		restored int64
	}{
		{name: "restore before the next commit", restored: 1},
		{name: "next epoch commits", goesOn: true, restored: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g1, src1, _ := build(first)
			runErr := make(chan error, 1)
			go func() { runErr <- g1.Run() }()
			mem := snapshot.NewMemory()
			// dm0000000002 is the manifest that would commit epoch 2.
			dc, chain := local(g1, flakyBackend{mem, func(id string) bool { return id == "dm0000000002" }})
			src1.waitPos(t, first)
			if epoch, err := dc.CheckpointOnce(snapshot.CaptureFull); err != nil || epoch != 1 {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			src1.limit.Store(last)
			src1.waitPos(t, last)
			epoch, err := dc.CheckpointOnce(snapshot.CaptureFull)
			if err == nil || !strings.Contains(err.Error(), "commit manifest") {
				t.Fatalf("epoch %d over a refused commit: %v", epoch, err)
			}
			if dc.CommittedEpoch() != 1 {
				t.Fatalf("committed %d after the refused commit, want 1", dc.CommittedEpoch())
			}
			if latest, _, err := chain.LatestEpoch(); err != nil || latest != 2 {
				t.Fatalf("chain latest = %d (%v), want the orphaned 2", latest, err)
			}
			if tc.goesOn {
				if epoch, err := dc.CheckpointOnce(snapshot.CaptureFull); err != nil || epoch != 3 {
					t.Fatalf("epoch %d after the refused commit: %v", epoch, err)
				}
			}
			g1.Kill()
			if err := <-runErr; !errors.Is(err, ErrKilled) {
				t.Fatalf("killed run returned %v", err)
			}

			g2, _, sink2 := build(total)
			if dc2 := restoreLocal(t, g2, mem); dc2.CommittedEpoch() != tc.restored {
				t.Fatalf("restored epoch %d, want %d", dc2.CommittedEpoch(), tc.restored)
			}
			if latest, _, err := snapshot.NewChain(mem).LatestEpoch(); err != nil || latest != tc.restored {
				t.Fatalf("chain latest after restore = %d (%v), want %d", latest, err, tc.restored)
			}
			if err := g2.Run(); err != nil {
				t.Fatal(err)
			}
			if got := sink2.Tuples(); len(got) != total || digest(got) != want {
				t.Fatalf("restored run recorded %d tuples, digest %08x; want %d, %08x", len(got), digest(got), total, want)
			}
		})
	}
}

// TestTimelineCommitsAtTheManifest: the epoch timeline records one commit
// per committed epoch, when its manifest is durable, and none for an epoch
// whose manifest write was refused, although its snapshot persisted: that
// epoch is abandoned. The status ring still reports every local outcome.
func TestTimelineCommitsAtTheManifest(t *testing.T) {
	src := &limitedSource{schema: incrSchema, total: 400}
	sink := NewCollector("sink", incrSchema)
	g := NewGraph()
	g.Add(sink, From(g.AddSource(src)))
	tel := telemetry.New()
	g.SetTelemetry(tel)
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	// dm0000000003 is the manifest that would commit epoch 3.
	dc, _ := local(g, flakyBackend{snapshot.NewMemory(), func(id string) bool { return id == "dm0000000003" }})
	for _, stop := range []int64{250, 280, 310} {
		src.limit.Store(stop)
		src.waitPos(t, stop)
		epoch, err := dc.CheckpointOnce(snapshot.CaptureFull)
		if (err != nil) != (epoch == 3) {
			t.Fatalf("epoch %d: err=%v", epoch, err)
		}
	}
	g.Kill()
	if err := <-runErr; !errors.Is(err, ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}
	g.WaitCheckpoints()

	commits, abandons := map[int64]int{}, map[int64]int{}
	for _, ev := range tel.Timeline.Events() {
		switch ev.Phase {
		case "commit":
			commits[ev.Epoch]++
		case "abandon":
			abandons[ev.Epoch]++
		}
	}
	if want := map[int64]int{1: 1, 2: 1}; !maps.Equal(commits, want) {
		t.Errorf("commit rows per epoch = %v, want %v", commits, want)
	}
	if want := map[int64]int{3: 1}; !maps.Equal(abandons, want) {
		t.Errorf("abandon rows per epoch = %v, want %v", abandons, want)
	}
	sts := g.CheckpointStatuses()
	if len(sts) != 3 {
		t.Fatalf("statuses %+v, want epochs 1..3", sts)
	}
	for i, st := range sts {
		if st.Epoch != int64(i+1) || st.Err != nil {
			t.Errorf("status %d = %+v, want epoch %d persisted", i, st, i+1)
		}
	}
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
		if !slices.EqualFunc(got[i].Values, want[i].Values, stream.Value.Equal) || got[i].Seq != want[i].Seq {
			t.Fatalf("tuple %d diverged: %v vs %v", i, got[i], want[i])
		}
	}
}
