// Package experiments contains the harnesses that regenerate every table
// and figure in the paper's evaluation (§6): the imputation experiment
// (Figures 5 and 6), the speed-map experiment (Figure 7), the Figure 1(b)
// motivating plan, and the operator characterization demonstrations
// (Tables 1 and 2). Each plan is described once, on a plan.Builder, and runs
// compiled; cmd/experiments prints the reports, and the shapes the paper
// reports are asserted by this package's tests, compiled and not.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/archive"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/work"
)

// ImputationConfig parameterizes Experiment 1 (Figures 5 and 6).
//
// The paper streamed 5000 tuples (alternating clean and needing
// imputation) against a real archival DBMS; per-tuple imputation was
// slower than the dirty-tuple arrival rate, so the imputed stream
// diverged from the clean stream in real time. We reproduce the same race
// with a wall-clock-paced source and a calibrated lookup cost.
type ImputationConfig struct {
	// Tuples is the stream length (paper: 5000).
	Tuples int
	// Rate is the source rate in tuples/second. Default 2500 (the
	// 5000-tuple run takes ~2 s).
	Rate float64
	// ToleranceMicros is PACE's allowed stream-time divergence.
	// Default 40 ms of stream time.
	ToleranceMicros int64
	// ServiceFactor is imputation service time as a multiple of the
	// dirty-tuple inter-arrival time. >1 means IMPUTE cannot keep up;
	// the paper's setting corresponds to ~1.4 (≈29% overload).
	ServiceFactor float64
	// Feedback enables PACE's assumed-feedback production and IMPUTE's
	// exploitation (Figure 6 vs Figure 5).
	Feedback bool
}

func (c ImputationConfig) withDefaults() ImputationConfig {
	if c.Tuples <= 0 {
		c.Tuples = 5000
	}
	if c.Rate <= 0 {
		c.Rate = 2500
	}
	if c.ToleranceMicros <= 0 {
		c.ToleranceMicros = 40_000
	}
	if c.ServiceFactor <= 0 {
		c.ServiceFactor = 1.4
	}
	return c
}

// ImputationResult aggregates Experiment 1's outcome.
type ImputationResult struct {
	Config        ImputationConfig
	Elapsed       time.Duration
	CleanTotal    int64 // clean tuples entering the plan
	ImputedTotal  int64 // dirty tuples entering the plan
	ImputedOK     int64 // imputed tuples that reached the result in time
	SkippedAtImp  int64 // dirty tuples discarded by IMPUTE's guard
	DroppedAtPace int64 // dirty tuples dropped late at PACE
	LateAtSink    int64 // dirty tuples that arrived but lagged > tolerance
	FeedbackSent  int64
	Series        *telemetry.Series
}

// UselessFraction is the experiment's headline metric: the fraction of
// imputed tuples that never became a timely result (dropped, skipped, or
// late). Paper: 97% without feedback, 29% with.
func (r ImputationResult) UselessFraction() float64 {
	if r.ImputedTotal == 0 {
		return 0
	}
	useless := r.SkippedAtImp + r.DroppedAtPace + r.LateAtSink
	return float64(useless) / float64(r.ImputedTotal)
}

// RunImputation executes the Figure 4(a) plan (imputationPlan), compiled.
func RunImputation(cfg ImputationConfig) (ImputationResult, error) {
	return runImputation(cfg, true)
}

// imputation is what Experiment 1 reads off its plan after the run.
type imputation struct {
	imp    *op.Impute
	pace   *op.Pace
	series *telemetry.Series
}

// imputationPlan describes the Figure 4(a) plan:
//
//	source → DUPLICATE → σ_clean ────────────────→ PACE → sink
//	                   → σ_dirty → IMPUTE ───────↗
//
// with feedback (when enabled) flowing PACE → IMPUTE, where it stops.
func imputationPlan(b *plan.Builder, cfg ImputationConfig) imputation {
	// Stream time tracks wall time: one tuple per 1/Rate seconds, so the
	// stream-time tolerance means the same thing in both domains.
	spacingMicros := int64(1e6 / cfg.Rate)
	src := &gen.RatedSource{
		SourceName: "sensor-feed",
		Schema:     gen.TrafficSchema,
		Items:      gen.ImputationStream(cfg.Tuples, 0, spacingMicros, 50),
		PerSecond:  cfg.Rate,
	}

	// Imputation service time: dirty tuples arrive every 2/Rate seconds;
	// the archival lookup costs ServiceFactor times that.
	dirtyInterarrival := 2 / cfg.Rate // seconds
	lookup := work.UnitsFor(time.Duration(cfg.ServiceFactor * dirtyInterarrival * float64(time.Second)))

	mode := op.FeedbackIgnore
	if cfg.Feedback {
		mode = op.FeedbackExploit
	}
	// Only IMPUTE and PACE take part in feedback: the operators the builder
	// makes ignore it.
	b.Mode, b.Propagate = op.FeedbackIgnore, false
	// Deep queues: the dirty branch must be able to accumulate backlog
	// (the paper's divergence) without stalling the clean branch. Small
	// pages: with ~1 ms imputation service time, a large output page
	// would hold finished tuples for many milliseconds of batching delay
	// — a meaningful fraction of the tolerance.
	b.Graph().SetQueueOptions(queue.Options{PageSize: 4, Depth: 16384})

	h := imputation{
		imp: &op.Impute{
			OpName: "impute", Schema: gen.TrafficSchema,
			SegAttr: 0, DetAttr: 1, TsAttr: 2, SpeedAttr: 3,
			Store: newSeededStore(lookup), Mode: mode,
		},
		pace: &op.Pace{
			OpName: "pace", Schema: gen.TrafficSchema, K: 2, TsAttr: 2,
			Tolerance:       chooseTolerance(cfg),
			FeedbackEnabled: cfg.Feedback,
			// Tight cadence: the guard's cutoff tracks the live edge closely
			// so IMPUTE wastes little service time on soon-to-be-late tuples.
			FeedbackMinAdvance: cfg.ToleranceMicros / 8,
			// Modest slack: enough headroom for one service time plus page
			// batching, without giving up usable tolerance.
			FeedbackSlack: cfg.ToleranceMicros / 4,
		},
		series: telemetry.NewSeries(),
	}
	paths := b.Source(src).Duplicate("duplicate", 2)
	clean := paths[0].Select("sigma-clean", func(t stream.Tuple) bool { return !t.At(3).IsNull() })
	imputed := paths[1].Select("sigma-dirty", func(t stream.Tuple) bool { return t.At(3).IsNull() }).
		Through(h.imp)
	sink := clean.Through(h.pace, imputed).Collect("speedmap-sink")
	sink.Discard = true
	sink.OnTuple = func(t stream.Tuple) {
		class := telemetry.Clean
		if t.Seq%2 == 1 { // odd seq = dirty path (gen alternates)
			class = telemetry.Imputed
		}
		h.series.Observe(t.Seq, class, t.At(2).I)
	}
	return h
}

// runImputation runs imputationPlan, compiled or not.
func runImputation(cfg ImputationConfig, compile bool) (ImputationResult, error) {
	cfg = cfg.withDefaults()
	res := ImputationResult{Config: cfg}
	b := plan.New()
	h := imputationPlan(b, cfg)
	if compile {
		b.Compile()
	}
	start := time.Now()
	if err := b.Run(); err != nil {
		return res, fmt.Errorf("imputation run: %w", err)
	}
	res.Elapsed = time.Since(start)

	res.CleanTotal = int64((cfg.Tuples + 1) / 2)
	res.ImputedTotal = int64(cfg.Tuples / 2)
	_, res.SkippedAtImp, _ = h.imp.Stats()
	res.DroppedAtPace = h.pace.InputStats()[1].Dropped
	res.LateAtSink = int64(h.series.LateCount(telemetry.Imputed, cfg.ToleranceMicros))
	res.ImputedOK = res.ImputedTotal - res.SkippedAtImp - res.DroppedAtPace - res.LateAtSink
	res.FeedbackSent = h.pace.FeedbackSent()
	res.Series = h.series
	return res, nil
}

// chooseTolerance converts the result-timeliness tolerance into PACE's
// drop bound (same units); the no-feedback baseline disables dropping
// entirely (PACE degenerates to UNION, as in Figure 5).
func chooseTolerance(cfg ImputationConfig) int64 {
	if !cfg.Feedback {
		return 0
	}
	return cfg.ToleranceMicros
}

// newSeededStore builds the simulated archival DBMS for IMPUTE.
func newSeededStore(lookupCost int) *archive.Store {
	s := archive.NewStore(lookupCost)
	s.SeedDiurnal(9, 40)
	return s
}

// Report renders the result in the style of §6's prose.
func (r ImputationResult) Report(w io.Writer) {
	fmt.Fprintf(w, "Experiment 1 (feedback=%v): %d tuples at %.0f/s, tolerance %d ms\n",
		r.Config.Feedback, r.Config.Tuples, r.Config.Rate, r.Config.ToleranceMicros/1000)
	fmt.Fprintf(w, "  elapsed                 %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  imputed tuples          %d\n", r.ImputedTotal)
	fmt.Fprintf(w, "  skipped at IMPUTE       %d\n", r.SkippedAtImp)
	fmt.Fprintf(w, "  dropped late at PACE    %d\n", r.DroppedAtPace)
	fmt.Fprintf(w, "  late at sink            %d\n", r.LateAtSink)
	fmt.Fprintf(w, "  timely imputed          %d\n", r.ImputedOK)
	fmt.Fprintf(w, "  useless fraction        %.0f%%  (paper: 97%% without, 29%% with feedback)\n",
		100*r.UselessFraction())
	fmt.Fprintf(w, "  feedback punctuations   %d\n", r.FeedbackSent)
	fmt.Fprintf(w, "  clean output pattern    |%s|\n", r.Series.Sparkline(telemetry.Clean, 40))
	fmt.Fprintf(w, "  imputed output pattern  |%s|\n", r.Series.Sparkline(telemetry.Imputed, 40))
}
