package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// Large-state checkpoint benchmarks: how does the cost of a cut scale with
// operator state? The plan is a single grouped aggregate holding `groups`
// open (window, group) accumulators; between checkpoints the driver
// touches a fixed number of groups, so a delta capture is O(touch) while a
// full serialization is O(groups). BenchmarkBarrierHold/Checkpoint-
// LargeState in bench_test.go drive this harness.

// stepSchema is the benchmark stream: (k, ts, v).
var stepSchema = stream.MustSchema(
	stream.F("k", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("v", stream.KindFloat),
)

// steppedSource emits exactly limit items (all in one giant window), then
// parks live — the driver raises the limit to "touch" groups between
// checkpoints.
//
//pace:stateless experiment harness source; each run starts from scratch, restore is never exercised
type steppedSource struct {
	groups int64 // first `groups` items create distinct keys
	limit  atomic.Int64
	pos    atomic.Int64
}

func (s *steppedSource) Name() string                { return "stepped" }
func (s *steppedSource) OutSchemas() []stream.Schema { return []stream.Schema{stepSchema} }
func (s *steppedSource) Open(exec.Context) error     { return nil }
func (s *steppedSource) Close(exec.Context) error    { return nil }
func (s *steppedSource) ProcessFeedback(int, core.Feedback, exec.Context) error {
	return nil
}

func (s *steppedSource) Next(ctx exec.Context) (bool, error) {
	pos, limit := s.pos.Load(), s.limit.Load()
	if pos >= limit {
		// Parked: stay responsive to checkpoint polls without spinning.
		time.Sleep(50 * time.Microsecond)
		return true, nil
	}
	for n := 0; n < 256 && pos < limit; n++ {
		key := pos
		if pos >= s.groups {
			key = (pos - s.groups) % s.groups
		}
		ctx.Emit(stream.NewTuple(stream.Int(key), stream.TimeMicros(0), stream.Float(1)).WithSeq(pos))
		pos++
	}
	s.pos.Store(pos)
	return true, nil
}

// LargeStateBench is a running single-aggregate plan parked with a chosen
// number of open groups, ready to be touched and checkpointed repeatedly.
type LargeStateBench struct {
	g     *exec.Graph
	src   *steppedSource
	errCh chan error
}

// StartLargeStateBench builds and starts the plan, returning once the
// source has emitted the fill (one tuple per group).
func StartLargeStateBench(groups int) (*LargeStateBench, error) {
	src := &steppedSource{groups: int64(groups)}
	src.limit.Store(int64(groups))
	agg := &op.Aggregate{OpName: "agg", In: stepSchema, Kind: core.AggSum,
		TsAttr: 1, ValAttr: 2, GroupBy: []int{0},
		Window: window.Tumbling(int64(time.Hour) / 1000), Mode: op.FeedbackExploit}
	sink := exec.NewCollector("sink", agg.OutSchemas()[0])
	sink.Discard = true
	g := exec.NewGraph()
	s := g.AddSource(src)
	a := g.Add(agg, exec.From(s))
	g.Add(sink, exec.From(a))
	lb := &LargeStateBench{g: g, src: src, errCh: make(chan error, 1)}
	go func() { lb.errCh <- g.Run() }()
	deadline := time.Now().Add(30 * time.Second)
	for src.pos.Load() < int64(groups) {
		select {
		case err := <-lb.errCh:
			return nil, fmt.Errorf("experiments: large-state bench exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("experiments: large-state bench stuck at %d/%d", src.pos.Load(), groups)
		}
		time.Sleep(time.Millisecond)
	}
	return lb, nil
}

// Touch lets the source re-emit n tuples into existing groups (state size
// stays constant; n groups become dirty).
func (lb *LargeStateBench) Touch(n int) { lb.src.limit.Add(int64(n)) }

// Checkpoint takes one checkpoint in the given mode and returns its
// status (BarrierHold is the hot-path stall; Encode the background cost).
func (lb *LargeStateBench) Checkpoint(ctx context.Context, mode snapshot.CaptureMode) (exec.CheckpointStatus, error) {
	var (
		snap *snapshot.Snapshot
		err  error
	)
	if mode == snapshot.CaptureDelta {
		snap, err = lb.g.CheckpointIncremental(ctx)
	} else {
		snap, err = lb.g.Checkpoint(ctx)
	}
	if err != nil {
		return exec.CheckpointStatus{}, err
	}
	st, ok := lb.g.CheckpointStatus(snap.Epoch)
	if !ok {
		return exec.CheckpointStatus{}, fmt.Errorf("experiments: no status for epoch %d", snap.Epoch)
	}
	return st, nil
}

// Stop kills the plan.
func (lb *LargeStateBench) Stop() error {
	lb.g.Kill()
	err := <-lb.errCh
	if err != nil && !errors.Is(err, exec.ErrKilled) {
		return err
	}
	return nil
}
