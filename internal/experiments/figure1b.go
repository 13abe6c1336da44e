package experiments

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
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

// RunFigure1b executes the plan with or without the congestion feedback.
// Seeds are fixed so the two runs are comparable tuple for tuple.
func RunFigure1b(feedback bool, hours int) (Figure1bResult, error) {
	res := Figure1bResult{Feedback: feedback}
	const period = int64(20_000_000)
	start := int64(6*3600+1800) * 1_000_000 // 6:30 am: rush onset
	duration := int64(hours) * 3600 * 1_000_000

	mode := op.FeedbackIgnore
	if feedback {
		mode = op.FeedbackExploit
	}
	probes := &gen.ProbeSource{Config: gen.ProbeConfig{
		Segments: 9, VehiclesPerPeriod: 6, Period: period,
		Duration: duration, Start: start,
		NoiseRate: 0.05, Noise: 4, Seed: 1,
		FeedbackAware: feedback,
	}}
	// Cleaning and aggregation carry real per-tuple cost (the paper's
	// point: this is the work worth avoiding for uncongested segments).
	clean := &op.Select{
		OpName: "clean", Schema: gen.ProbeSchema,
		Cond: func(t stream.Tuple) bool {
			v := t.At(2).AsFloat()
			return v >= 0 && v <= 100
		},
		Cost: 800,
		Mode: mode, Propagate: feedback,
	}
	agg := &op.Aggregate{
		OpName: "aggregate", In: gen.ProbeSchema, Kind: core.AggAvg,
		TsAttr: 1, ValAttr: 2, GroupBy: []int{0},
		Window: window.Tumbling(period), ValueName: "probe_speed",
		Cost: 800,
		Mode: mode, Propagate: feedback,
	}
	sensors := &gen.TrafficSource{Config: gen.TrafficConfig{
		Segments: 9, DetectorsPerSegment: 1, ReportPeriod: period,
		Duration: duration, Start: start, Noise: 2, Seed: 2,
	}}
	sensorKey := &op.Project{OpName: "sensor-key", In: gen.TrafficSchema, Keep: []string{"segment", "ts", "speed"}}
	join := &op.Join{
		OpName: "speedmap-join",
		Left:   sensorKey.OutSchemas()[0], Right: agg.OutSchemas()[0],
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
		LeftTs: 1, RightTs: 1,
		Residual:  func(l, r stream.Tuple) bool { return l.At(2).AsFloat() < 45 },
		LeftOuter: true,
		Mode:      mode,
	}
	var adaptiveSent atomic.Int64
	if feedback {
		join.Adaptive = func(input int, t stream.Tuple, send func(int, core.Feedback)) {
			if input != 0 || t.At(2).IsNull() || t.At(2).AsFloat() < 45 {
				return
			}
			wstart := (t.At(1).Micros() / period) * period
			send(1, core.NewAssumed(punct.NewPattern(
				punct.Eq(t.At(0)),
				punct.Eq(stream.TimeMicros(wstart)),
				punct.Wild,
			)))
			adaptiveSent.Add(1)
		}
	}
	sink := exec.NewCollector("map", join.OutSchemas()[0])

	g := exec.NewGraph()
	g.SetQueueOptions(queue.Options{PageSize: 8, Depth: 2})
	pn := g.AddSource(probes)
	cn := g.Add(clean, exec.From(pn))
	an := g.Add(agg, exec.From(cn))
	sn := g.AddSource(sensors)
	kn := g.Add(sensorKey, exec.From(sn))
	jn := g.Add(join, exec.From(kn), exec.From(an))
	g.Add(sink, exec.From(jn))

	if err := g.Run(); err != nil {
		return res, fmt.Errorf("figure 1(b) run: %w", err)
	}
	res.MapRows = sink.Tuples()
	js := join.Stats()
	res.Joined, res.SensorOnly = js.Emitted, js.OuterEmitted
	in, _, skipped := clean.Stats()
	res.CleanerInput, res.CleanerSkipped = in, skipped
	res.AggFoldsSkipped = agg.Stats().InSuppressed
	_, res.ProbesSkipped = probes.Stats()
	res.AdaptiveSent = adaptiveSent.Load()
	return res, nil
}
