package plan

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// gatedItems replays a fixed item sequence, parking (without blocking the
// runner) at gateAt until the gate opens. The atomic position lets the
// test observe where the stream is from outside the graph.
type gatedItems struct {
	name   string
	schema stream.Schema
	items  []queue.Item
	gateAt int
	gate   atomic.Bool
	pos    atomic.Int64
}

func (s *gatedItems) Name() string                { return s.name }
func (s *gatedItems) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *gatedItems) Open(exec.Context) error     { return nil }
func (s *gatedItems) Close(exec.Context) error    { return nil }
func (s *gatedItems) ProcessFeedback(int, core.Feedback, exec.Context) error {
	return nil
}

func (s *gatedItems) Next(ctx exec.Context) (bool, error) {
	pos := int(s.pos.Load())
	if pos >= len(s.items) {
		return false, nil
	}
	for n := 0; n < 16; n++ {
		if pos >= len(s.items) {
			break
		}
		if pos == s.gateAt && !s.gate.Load() {
			time.Sleep(time.Millisecond)
			break
		}
		switch it := s.items[pos]; it.Kind {
		case queue.ItemTuple:
			ctx.Emit(it.Tuple)
		case queue.ItemPunct:
			ctx.EmitPunct(*it.Punct)
		}
		pos++
	}
	s.pos.Store(int64(pos))
	return true, nil
}

// CaptureState implements snapshot.Stater.
func (s *gatedItems) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos.Load()
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(pos)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *gatedItems) LoadState(dec *snapshot.Decoder) error {
	s.pos.Store(dec.GetInt64())
	return dec.Err()
}

// TestParallelCheckpointRecoverIdentity is the acceptance test: a
// Parallel(4) aggregate plan is checkpointed mid-stream, killed, and
// restored into a rebuilt plan; the restored sink's final record must be
// canonically identical to an uninterrupted run — 0 lost, 0 duplicated.
// localCoord wraps b the way a single-process plan is checkpointed and
// restored: DistCoordinate with no followers, chain and manifest log over
// one backend, so a rebuilt plan given the same backend restores what the
// first committed.
func localCoord(t testing.TB, b *Builder, backend snapshot.Backend) *exec.DistCoordinator {
	t.Helper()
	dc, err := b.DistCoordinate("local", snapshot.NewChain(backend), snapshot.NewDistLog(backend))
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// checkpointLocal commits one full cut of the running plan to backend.
func checkpointLocal(t testing.TB, b *Builder, backend snapshot.Backend) {
	t.Helper()
	if _, err := localCoord(t, b, backend).CheckpointOnce(snapshot.CaptureFull); err != nil {
		t.Fatal(err)
	}
}

// restoreLocal stages the newest cut committed to backend on a rebuilt plan.
func restoreLocal(t testing.TB, b *Builder, backend snapshot.Backend) {
	t.Helper()
	if ok, err := localCoord(t, b, backend).RestoreCommitted(); err != nil || !ok {
		t.Fatalf("RestoreCommitted: ok=%v err=%v", ok, err)
	}
}

func TestParallelCheckpointRecoverIdentity(t *testing.T) {
	items := aggWorkload(8000)
	gateAt := len(items) * 3 / 5

	build := func(gateOpen bool) (*Builder, *gatedItems, *exec.Collector) {
		b := New()
		src := &gatedItems{name: "src", schema: testSchema, items: items, gateAt: gateAt}
		src.gate.Store(gateOpen)
		out := b.Source(src).Parallel("p", 4, []string{"segment"}, func(ss Stream) Stream {
			return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(1_000_000), "avg_speed")
		})
		sink := out.Collect("sink")
		return b, src, sink
	}

	// Uninterrupted reference.
	bRef, _, sinkRef := build(true)
	if err := bRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := sinkRef.Lines()
	if len(want) == 0 {
		t.Fatal("workload produced no results")
	}

	// Interrupted run: park at the gate, checkpoint, crash.
	b1, src1, _ := build(false)
	runErr := make(chan error, 1)
	go func() { runErr <- b1.Run() }()
	for deadline := time.Now().Add(10 * time.Second); src1.pos.Load() < int64(gateAt); {
		if time.Now().After(deadline) {
			t.Fatalf("source stuck at %d/%d", src1.pos.Load(), gateAt)
		}
		time.Sleep(time.Millisecond)
	}
	backend := snapshot.NewMemory()
	checkpointLocal(t, b1, backend)
	b1.Graph().Kill()
	if err := <-runErr; !errors.Is(err, exec.ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	// Recover through the backend into an identically rebuilt plan.
	b2, _, sink2 := build(true)
	restoreLocal(t, b2, backend)
	if err := b2.Run(); err != nil {
		t.Fatal(err)
	}

	got := sink2.Lines()
	if len(got) != len(want) {
		t.Fatalf("recovered run produced %d results, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d diverged after recovery: %s vs %s", i, got[i], want[i])
		}
	}
}

// feedSource is an endless traffic generator that exploits assumed feedback;
// its replay counter and guards persist through checkpoints.
type feedSource struct {
	exec.Generating
	schema stream.Schema
	i, ts  int64
}

func (s *feedSource) Name() string                { return "feedsrc" }
func (s *feedSource) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *feedSource) Open(exec.Context) error {
	s.Mode = core.ModeExploit
	s.Generate(s, exec.Rule{}, snapshot.Int64(&s.i, &s.ts))
	return nil
}

func (s *feedSource) Step(run []stream.Tuple) (exec.Run, error) {
	for j := 0; j < 64; j++ {
		s.i++
		s.ts += 500
		run = append(run, reading(s.i%9, s.ts, 55))
	}
	return exec.Run{Tuples: run, More: true}, nil
}

// feedSink asserts ¬[segment=2] after 10 tuples. Its persisted state is the
// assertion itself (sent); quota bounds how many tuples the current run
// accepts before shutting the plan down (not persisted — each run decides).
type feedSink struct {
	exec.Base
	schema    stream.Schema
	quota     int64
	localSeen int64
	shutdown  bool

	seen     int64 // persisted
	sent     bool  // persisted
	seg2Seen atomic.Int64
}

func (d *feedSink) Name() string                { return "decider" }
func (d *feedSink) InSchemas() []stream.Schema  { return []stream.Schema{d.schema} }
func (d *feedSink) OutSchemas() []stream.Schema { return nil }

func (d *feedSink) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	d.seen++
	d.localSeen++
	if t.At(0).AsInt() == 2 {
		d.seg2Seen.Add(1)
	}
	if !d.sent && d.seen >= 10 {
		d.sent = true
		ctx.SendFeedback(0, core.NewAssumed(punct.OnAttr(d.schema.Arity(), 0, punct.Eq(stream.Int(2)))))
	}
	if !d.shutdown && d.localSeen >= d.quota {
		d.shutdown = true
		ctx.ShutdownUpstream(0)
	}
	return nil
}

// CaptureState implements snapshot.Stater.
func (d *feedSink) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	seen, sent := d.seen, d.sent
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(seen)
		enc.PutBool(sent)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (d *feedSink) LoadState(dec *snapshot.Decoder) error {
	d.seen = dec.GetInt64()
	d.sent = dec.GetBool()
	return dec.Err()
}

// TestParallelCheckpointPreservesFeedbackState checkpoints a partitioned
// plan whose feedback has reached all the way to the source (guards live at
// the source, in every split partition table, and at the merge), kills it,
// and restores: the recovered plan must keep honoring the assertion — the
// restored source suppresses the disclaimed segment from its very first
// batch, and the sink never sees it again.
func TestParallelCheckpointPreservesFeedbackState(t *testing.T) {
	build := func(quota int64) (*Builder, *feedSource, *feedSink) {
		b := New()
		src := &feedSource{schema: testSchema}
		out := b.Source(src).Parallel("p", 3, []string{"segment"}, func(ss Stream) Stream {
			return ss.Select("pass", func(stream.Tuple) bool { return true })
		})
		sink := &feedSink{schema: testSchema, quota: quota}
		out.Into(sink)
		return b, src, sink
	}

	// Phase 1: run until the source itself is suppressing segment 2.
	b1, src1, _ := build(1 << 60)
	runErr := make(chan error, 1)
	go func() { runErr <- b1.Run() }()
	for deadline := time.Now().Add(30 * time.Second); src1.Suppressed() < 2000; {
		if time.Now().After(deadline) {
			t.Fatalf("feedback never reached the source (skipped=%d)", src1.Suppressed())
		}
		time.Sleep(time.Millisecond)
	}
	backend := snapshot.NewMemory()
	checkpointLocal(t, b1, backend)
	b1.Graph().Kill()
	if err := <-runErr; !errors.Is(err, exec.ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	// Phase 2: recover and run a bounded slice of the stream.
	b2, src2, sink2 := build(30_000)
	restoreLocal(t, b2, backend)
	skippedAtCut := src1.Suppressed()
	if err := b2.Run(); err != nil {
		t.Fatal(err)
	}
	if sink2.seg2Seen.Load() != 0 {
		t.Fatalf("disclaimed segment reappeared after recovery (%d tuples)", sink2.seg2Seen.Load())
	}
	if src2.Suppressed() <= skippedAtCut {
		t.Fatalf("restored source guard inactive: skipped %d (cut had %d)",
			src2.Suppressed(), skippedAtCut)
	}
	if !sink2.sent {
		t.Fatal("sink assertion flag lost in restore")
	}
}
