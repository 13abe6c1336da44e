package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// Recovery benchmarks: checkpoint overhead and recovery time on the same
// partitioned-aggregate plan the scaling benchmarks use (bench_test.go).

// gatedTrafficSource replays ParallelTrafficItems, parking (live, not
// blocked) at gateAt until the gate opens, so a checkpoint can be taken
// against a plan whose aggregates hold a full complement of open windows.
type gatedTrafficSource struct {
	items  []queue.Item
	gateAt int
	gate   atomic.Bool
	pos    atomic.Int64
}

func (s *gatedTrafficSource) Name() string                { return "gated-traffic" }
func (s *gatedTrafficSource) OutSchemas() []stream.Schema { return []stream.Schema{gen.TrafficSchema} }
func (s *gatedTrafficSource) Open(exec.Context) error     { return nil }
func (s *gatedTrafficSource) Close(exec.Context) error    { return nil }
func (s *gatedTrafficSource) ProcessFeedback(int, core.Feedback, exec.Context) error {
	return nil
}

func (s *gatedTrafficSource) Next(ctx exec.Context) (bool, error) {
	pos := int(s.pos.Load())
	if pos >= len(s.items) {
		return false, nil
	}
	for n := 0; n < 64; n++ {
		if pos >= len(s.items) {
			break
		}
		if pos == s.gateAt && !s.gate.Load() {
			// Parked: stay responsive to checkpoint polls without
			// spinning a core.
			time.Sleep(100 * time.Microsecond)
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

// CaptureState implements snapshot.Stater: the replay position is the state.
func (s *gatedTrafficSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos.Load()
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(pos)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *gatedTrafficSource) LoadState(dec *snapshot.Decoder) error {
	s.pos.Store(dec.GetInt64())
	return dec.Err()
}

// buildRecoveryPlan assembles source → split(segment) → parts × aggregate
// → merge → discard sink around the given source.
func buildRecoveryPlan(src *gatedTrafficSource, parts, cost int) *plan.Builder {
	const minute = int64(60_000_000)
	b := plan.New()
	out := b.Source(src).Parallel("part", parts, []string{"segment"}, func(ss plan.Stream) plan.Stream {
		return ss.Through(&op.Aggregate{OpName: "agg", In: gen.TrafficSchema, Kind: core.AggAvg,
			TsAttr: 2, ValAttr: 3, GroupBy: []int{0}, Window: window.Tumbling(minute),
			ValueName: "avg_speed", Cost: cost, Mode: op.FeedbackExploit, Propagate: true})
	})
	sink := exec.NewCollector("sink", out.Schema())
	sink.Discard = true
	out.Into(sink)
	return b
}

// RecoveryBench is a running partitioned-aggregate plan parked at 90% of
// its stream, ready to be checkpointed repeatedly.
type RecoveryBench struct {
	Parts int
	Cost  int
	items []queue.Item
	b     *plan.Builder
	src   *gatedTrafficSource
	errCh chan error
}

// StartRecoveryBench builds and starts the plan, returning once the source
// has parked at the gate (the aggregates then hold their steady-state
// complement of open windows).
func StartRecoveryBench(parts, tuples, cost int) (*RecoveryBench, error) {
	items := ParallelTrafficItems(tuples)
	gateAt := len(items) * 9 / 10
	src := &gatedTrafficSource{items: items, gateAt: gateAt}
	b := buildRecoveryPlan(src, parts, cost)
	rb := &RecoveryBench{Parts: parts, Cost: cost, items: items, b: b, src: src, errCh: make(chan error, 1)}
	go func() { rb.errCh <- b.Run() }()
	deadline := time.Now().Add(30 * time.Second)
	for src.pos.Load() < int64(gateAt) {
		select {
		case err := <-rb.errCh:
			return nil, fmt.Errorf("experiments: recovery bench plan exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("experiments: recovery bench stuck at %d/%d", src.pos.Load(), gateAt)
		}
		time.Sleep(time.Millisecond)
	}
	return rb, nil
}

// Checkpoint takes one snapshot of the running plan.
func (rb *RecoveryBench) Checkpoint(ctx context.Context) (*snapshot.Snapshot, error) {
	return rb.b.Graph().Checkpoint(ctx)
}

// Stop kills the plan (the crash half of crash-and-recover).
func (rb *RecoveryBench) Stop() error {
	rb.b.Graph().Kill()
	err := <-rb.errCh
	if err != nil && !errors.Is(err, exec.ErrKilled) {
		return err
	}
	return nil
}

// Recover rebuilds the plan, restores the snapshot, and runs the remaining
// 10% of the stream to completion: the measured span is staging +
// per-operator LoadState + catch-up replay.
func (rb *RecoveryBench) Recover(snap *snapshot.Snapshot) error {
	src := &gatedTrafficSource{items: rb.items, gateAt: len(rb.items) * 9 / 10}
	src.gate.Store(true)
	b := buildRecoveryPlan(src, rb.Parts, rb.Cost)
	if err := b.Graph().RestoreSnapshot(snap); err != nil {
		return err
	}
	return b.Run()
}
