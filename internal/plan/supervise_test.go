package plan

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// pacedItems replays a fixed item sequence at a bounded pace (so periodic
// checkpoints interleave with live traffic) and checkpoints its position.
type pacedItems struct {
	name   string
	schema stream.Schema
	items  []queue.Item
	pos    atomic.Int64
}

func (s *pacedItems) Name() string                { return s.name }
func (s *pacedItems) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *pacedItems) Open(exec.Context) error     { return nil }
func (s *pacedItems) Close(exec.Context) error    { return nil }
func (s *pacedItems) ProcessFeedback(int, core.Feedback, exec.Context) error {
	return nil
}

func (s *pacedItems) Next(ctx exec.Context) (bool, error) {
	pos := int(s.pos.Load())
	if pos >= len(s.items) {
		return false, nil
	}
	for n := 0; n < 8 && pos < len(s.items); n++ {
		switch it := s.items[pos]; it.Kind {
		case queue.ItemTuple:
			ctx.Emit(it.Tuple)
		case queue.ItemPunct:
			ctx.EmitPunct(*it.Punct)
		}
		pos++
	}
	s.pos.Store(int64(pos))
	time.Sleep(200 * time.Microsecond) // ~40k items/s: a live trickle
	return true, nil
}

// CaptureState implements snapshot.Stater.
func (s *pacedItems) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos.Load()
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(pos)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *pacedItems) LoadState(dec *snapshot.Decoder) error {
	s.pos.Store(dec.GetInt64())
	return dec.Err()
}

// TestCheckpointUnderLoadKillRestore is the checkpoint-under-load
// acceptance test: continuous traffic flows through a Parallel(4)
// aggregate deployed as one part, which takes periodic checkpoints
// (keep-last-3 retention) into a chain; the plan is killed at whatever epoch
// the clock lands on, redeployed from the newest committed epoch, and run to
// completion. The final record must be
// canonically identical to an uninterrupted run — no output gap, no
// duplication.
func TestCheckpointUnderLoadKillRestore(t *testing.T) {
	items := aggWorkload(6000)

	build := func() (*Builder, *pacedItems, *exec.Collector) {
		b := New()
		src := &pacedItems{name: "src", schema: testSchema, items: items}
		out := b.Source(src).Parallel("p", 4, []string{"segment"}, func(ss Stream) Stream {
			return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(1_000_000), "avg_speed")
		})
		sink := out.Collect("sink")
		return b, src, sink
	}

	// Uninterrupted reference.
	bRef, _, sinkRef := build()
	if err := bRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := sinkRef.Lines()
	if len(want) == 0 {
		t.Fatal("workload produced no results")
	}

	// Deployed run, killed at an arbitrary epoch.
	backend := snapshot.NewMemory()
	policy := exec.CheckpointPolicy{Interval: 15 * time.Millisecond, Retain: 3}
	b1, src1, _ := build()
	d1, err := Deploy(b1, Coordinator, backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { runErr, _ := d1.Run(policy, 0); done <- runErr }()
	// Let several epochs commit, then crash mid-stream.
	for deadline := time.Now().Add(30 * time.Second); d1.Committed() < 4 || src1.pos.Load() >= int64(len(items)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) || src1.pos.Load() >= int64(len(items)) {
			t.Fatalf("never reached a mid-stream epoch (committed %d, pos=%d/%d)", d1.Committed(), src1.pos.Load(), len(items))
		}
	}
	d1.Kill()
	if err := <-done; !errors.Is(err, exec.ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	// Redeploy: the newest committed epoch restores and the run finishes the
	// stream, checkpointing on.
	b2, _, sink2 := build()
	d2, err := Deploy(b2, Coordinator, backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Restored < 4 {
		t.Fatalf("redeploy restored epoch %d, the first run committed 4 or more", d2.Restored)
	}
	if runErr, _ := d2.Run(policy, 0); runErr != nil {
		t.Fatal(runErr)
	}

	got := sink2.Lines()
	if len(got) != len(want) {
		t.Fatalf("recovered run produced %d results, uninterrupted %d (gap or duplication)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d diverged after recovery: %s vs %s", i, got[i], want[i])
		}
	}
}
