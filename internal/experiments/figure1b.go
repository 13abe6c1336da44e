package experiments

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/window"
)

// Figure1bResult reports the motivating-scenario run (Figure 1(b)): the
// speed-map plan where probe-vehicle data is cleaned and aggregated, then
// outer-joined with fixed-sensor data for congested segments, with the
// join adaptively feeding back which (segment, window) subsets are
// uncongested and therefore need no vehicle processing.
type Figure1bResult struct {
	Feedback        bool
	MapRows         []stream.Tuple
	Joined          int64 // rows with probe data attached
	SensorOnly      int64 // outer rows
	CleanerInput    int64
	CleanerSkipped  int64
	AggFoldsSkipped int64
	ProbesSkipped   int64 // suppressed at the source
	AdaptiveSent    int64
}

// RunFigure1b executes the plan (figure1bPlan), compiled, with or without
// the congestion feedback. Seeds are fixed so the two runs are comparable
// tuple for tuple.
func RunFigure1b(feedback bool, hours int) (Figure1bResult, error) {
	return runFigure1b(feedback, hours, true)
}

// figure1b is what the Figure 1(b) run reads off its plan afterwards.
type figure1b struct {
	probes       *gen.ProbeSource
	clean        *op.Select
	agg          *op.Aggregate
	join         *op.Join
	sink         *exec.Collector
	adaptiveSent *atomic.Int64
}

// figure1bPlan describes the Figure 1(b) plan:
//
//	probes → CLEAN → AGGREGATE(segment, 20 s) ──────┐
//	sensors → PROJECT(segment, ts, speed) ─── OUTER JOIN → map
func figure1bPlan(b *plan.Builder, feedback bool, hours int) figure1b {
	const period = int64(20_000_000)
	start := int64(6*3600+1800) * 1_000_000 // 6:30 am: rush onset
	duration := int64(hours) * 3600 * 1_000_000

	mode := op.FeedbackIgnore
	if feedback {
		mode = op.FeedbackExploit
	}
	h := figure1b{
		probes: &gen.ProbeSource{Config: gen.ProbeConfig{
			Segments: 9, VehiclesPerPeriod: 6, Period: period,
			Duration: duration, Start: start,
			NoiseRate: 0.05, Noise: 4, Seed: 1,
		}},
		// Cleaning and aggregation carry real per-tuple cost (the paper's
		// point: this is the work worth avoiding for uncongested segments).
		clean: &op.Select{
			OpName: "clean", Schema: gen.ProbeSchema,
			Cond: func(t stream.Tuple) bool {
				v := t.At(2).AsFloat()
				return v >= 0 && v <= 100
			},
			Cost: 800,
			Mode: mode, Propagate: feedback,
		},
		agg: &op.Aggregate{
			OpName: "aggregate", In: gen.ProbeSchema, Kind: core.AggAvg,
			TsAttr: 1, ValAttr: 2, GroupBy: []int{0},
			Window: window.Tumbling(period), ValueName: "probe_speed",
			Cost: 800,
			Mode: mode, Propagate: feedback,
		},
		adaptiveSent: new(atomic.Int64),
	}
	h.probes.Mode = mode
	sensors := &gen.TrafficSource{Config: gen.TrafficConfig{
		Segments: 9, DetectorsPerSegment: 1, ReportPeriod: period,
		Duration: duration, Start: start, Noise: 2, Seed: 2,
	}}
	// The sensor-key projection ignores feedback: the join sends none to
	// its sensor input.
	b.Mode, b.Propagate = op.FeedbackIgnore, false
	b.Graph().SetQueueOptions(queue.Options{PageSize: 8, Depth: 2})
	vehicles := b.Source(h.probes).Through(h.clean).Through(h.agg)
	sensed := b.Source(sensors).Project("sensor-key", "segment", "ts", "speed")
	h.join = &op.Join{
		OpName: "speedmap-join",
		Left:   sensed.Schema(), Right: vehicles.Schema(),
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
		LeftTs: 1, RightTs: 1,
		Residual:  func(l, r stream.Tuple) bool { return l.At(2).AsFloat() < 45 },
		LeftOuter: true,
		Mode:      mode,
	}
	if feedback {
		h.join.Adaptive = func(input int, t stream.Tuple, send func(int, core.Feedback)) {
			if input != 0 || t.At(2).IsNull() || t.At(2).AsFloat() < 45 {
				return
			}
			wstart := (t.At(1).Micros() / period) * period
			send(1, core.NewAssumed(punct.NewPattern(
				punct.Eq(t.At(0)),
				punct.Eq(stream.TimeMicros(wstart)),
				punct.Wild,
			)))
			h.adaptiveSent.Add(1)
		}
	}
	h.sink = sensed.Through(h.join, vehicles).Collect("map")
	return h
}

// runFigure1b runs figure1bPlan, compiled or not.
func runFigure1b(feedback bool, hours int, compile bool) (Figure1bResult, error) {
	res := Figure1bResult{Feedback: feedback}
	b := plan.New()
	h := figure1bPlan(b, feedback, hours)
	if compile {
		b.Compile()
	}
	if err := b.Run(); err != nil {
		return res, fmt.Errorf("figure 1(b) run: %w", err)
	}
	res.MapRows = h.sink.Tuples()
	js := h.join.Stats()
	res.Joined, res.SensorOnly = js.Emitted, js.OuterEmitted
	res.CleanerInput, _, res.CleanerSkipped = h.clean.Stats()
	res.AggFoldsSkipped = h.agg.Stats().InSuppressed
	res.ProbesSkipped = h.probes.Suppressed()
	res.AdaptiveSent = h.adaptiveSent.Load()
	return res, nil
}
