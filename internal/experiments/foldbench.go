package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// The aggregate-fold microbenchmark behind BenchmarkAggregateFold in
// bench_test.go. Three shapes:
//
//   - hot: nine groups in one-minute windows, a tuple at a time — every fold
//     finds its group.
//   - insert: a group of its own per tuple (keys cycle through 50 000), in
//     runs of 64 as the runtime delivers them, the window closed by
//     punctuation every 8192 tuples — every fold opens a group and every
//     window is emitted and dropped: the shape of a wide key space (the
//     benchmark's remote_checkpointed).
//   - insert-tracked: insert after a first capture, with a delta capture
//     (phase 1 only) every fourth window — the same under checkpointing.
const (
	foldKeys         = 50_000
	foldWindowTuples = 8192
	foldRunTuples    = 64
	foldCaptureEvery = 4 * foldWindowTuples
)

// FoldShapes lists the shapes NewFoldBench knows.
var FoldShapes = []string{"hot", "insert", "insert-tracked"}

// FoldBench is one opened aggregate and the position of its input.
type FoldBench struct {
	agg     *op.Aggregate
	run     []stream.Tuple // rewritten in place; the aggregate keeps no tuple
	hot     bool
	tracked bool
	pos     int64
}

// foldSink discards what the aggregate emits.
type foldSink struct{}

func (foldSink) Emit(stream.Tuple)               {}
func (foldSink) EmitBatch([]stream.Tuple)        {}
func (foldSink) EmitTo(int, stream.Tuple)        {}
func (foldSink) EmitPunct(punct.Embedded)        {}
func (foldSink) EmitPunctTo(int, punct.Embedded) {}
func (foldSink) SendFeedback(int, core.Feedback) {}
func (foldSink) ShutdownUpstream(int)            {}
func (foldSink) NumInputs() int                  { return 1 }
func (foldSink) NumOutputs() int                 { return 1 }
func (foldSink) Logf(string, ...any)             {}

// NewFoldBench opens an aggregate for the given shape.
func NewFoldBench(shape string) (*FoldBench, error) {
	f := &FoldBench{hot: shape == "hot", tracked: shape == "insert-tracked"}
	win := int64(foldWindowTuples)
	switch shape {
	case "hot":
		win = 60_000_000
	case "insert", "insert-tracked":
	default:
		return nil, fmt.Errorf("experiments: unknown fold shape %q (have %v)", shape, FoldShapes)
	}
	f.agg = &op.Aggregate{
		In: gen.TrafficSchema, Kind: core.AggAvg,
		TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
		Window: window.Tumbling(win),
	}
	if err := f.agg.Open(foldSink{}); err != nil {
		return nil, err
	}
	f.run = make([]stream.Tuple, foldRunTuples)
	for i := range f.run {
		f.run[i] = stream.NewTuple(stream.Int(0), stream.Int(0), stream.TimeMicros(0), stream.Float(55))
	}
	if f.tracked {
		if _, err := f.agg.CaptureState(snapshot.CaptureFull); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Fold folds the next n tuples (n a multiple of 64 for the insert shapes;
// the remainder is left for the next call).
func (f *FoldBench) Fold(n int) error {
	if f.hot {
		t := f.run[0]
		for i := 0; i < n; i++ {
			t.Values[0] = stream.Int(f.pos % 9)
			t.Values[2] = stream.TimeMicros(f.pos % foldWindowTuples * 1000)
			f.pos++
			if err := f.agg.ProcessTuple(0, t, foldSink{}); err != nil {
				return err
			}
		}
		return nil
	}
	for ; n >= foldRunTuples; n -= foldRunTuples {
		for i := range f.run {
			f.run[i].Values[0] = stream.Int(f.pos % foldKeys)
			f.run[i].Values[2] = stream.TimeMicros(f.pos)
			f.pos++
		}
		if err := f.agg.ApplyTupleBatch(0, f.run, foldSink{}); err != nil {
			return err
		}
		if f.pos%foldWindowTuples == 0 {
			e := punct.NewEmbedded(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(f.pos-1))))
			if err := f.agg.ProcessPunct(0, e, foldSink{}); err != nil {
				return err
			}
		}
		if f.tracked && f.pos%foldCaptureEvery == 0 {
			if _, err := f.agg.CaptureState(snapshot.CaptureDelta); err != nil {
				return err
			}
		}
	}
	return nil
}

var _ exec.BatchEmitter = foldSink{}
