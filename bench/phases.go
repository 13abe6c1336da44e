package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// Sizes of a full run. A drain phase is one discarded warm-up pass (the first
// pass of a process runs 15–40% slow) and drainPasses measured ones; the
// metric is the upper-quartile pass.
const (
	drainPasses = 12
	// A phase is disturbed when the quartiles of its measured passes lie
	// further apart than maxPassSpread of their median, or when more than one
	// burst in twenty started over maxLate late. (One in twenty, not one in a
	// hundred: the measured container freezes for 40–60 ms about once in ten
	// seconds, and at 40% load the generator then starts a dozen bursts late
	// while the plan catches up — 1% of a phase by itself.) A disturbed
	// phase's numbers are discarded and the phase is measured again, at most
	// maxRepeats times. What happens to a phase still disturbed then depends
	// on what it feeds: see drain and paced.
	maxPassSpread = 0.25
	maxLate       = 5 * time.Millisecond
	maxRepeats    = 2
	// grossPassSpread is the spread at which a drain phase has no median worth
	// reporting: a run whose cleanest attempt is above it is invalid.
	grossPassSpread = 0.5
	// fullSeconds is the --seconds the workloads' tuple counts are sized
	// for; another value scales every count in proportion.
	fullSeconds = 20
)

// runner runs one workload's phases for one seed.
type runner struct {
	w     *workload
	in    *input
	scale float64
	smoke bool
	nproc int
	refs  map[int64]any

	passes  int // measured passes per drain phase
	setups  int // set-up samples
	repeats int // disturbed phases measured again so far
}

// invalidRun ends a run whose host would not let a drain phase be measured:
// it reports no numbers.
type invalidRun struct{ reason string }

func (e *invalidRun) Error() string { return "invalid: " + e.reason }

func newRunner(w *workload, seed uint64, scale float64, smoke bool) *runner {
	r := &runner{w: w, in: w.input(seed), scale: scale, smoke: smoke, nproc: runtime.NumCPU(), refs: map[int64]any{},
		passes: drainPasses, setups: setupSamples}
	if smoke {
		r.passes, r.setups = 1, 3
	}
	return r
}

// size scales a full-run tuple count and rounds it down to whole units (a
// punctuation block, or a burst), keeping at least two.
func (r *runner) size(full, unit int64) int64 {
	n := int64(float64(full)*r.scale) / unit * unit
	return max(n, 2*unit)
}

func (r *runner) reference(n int64) any {
	ref, ok := r.refs[n]
	if !ok {
		ref = r.w.reference(r.in, n)
		r.refs[n] = ref
	}
	return ref
}

// passResult is one finished pass.
type passResult struct {
	outcome
	n   int64
	dur time.Duration
	src *source
	rig *rig
}

func (pr *passResult) rate() float64 { return float64(pr.n) / pr.dur.Seconds() }

// runPass builds a fresh plan, runs it over the first p.n tuples and checks
// its output. The clock of a paced pass starts here.
func (r *runner) runPass(p pass) (*passResult, error) {
	ref := r.reference(p.n)
	src := &source{name: "gen", in: r.in, n: p.n, clk: p.clk}
	w := *r.w
	if w.ckptEvery > 0 {
		w.ckptEvery = max(int64(float64(w.ckptEvery)*r.scale)/r.in.block, 1) * r.in.block
	}
	rg, err := w.build(&w, src, p)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	defer rg.close()
	runtime.GC()
	if p.clk != nil {
		src.late = make([]int64, 0, p.n/p.clk.burst+1)
		p.clk.start = time.Now().Add(2 * time.Millisecond)
	}
	start := time.Now()
	if err := rg.run(); err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}
	dur := time.Since(start)
	return &passResult{outcome: rg.check(ref), n: p.n, dur: dur, src: src, rig: rg}, nil
}

// tally accumulates correctness over every pass of a run, warm-ups included.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o outcome) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// drainResult is a closed-loop phase: bounded queues back-pressure the
// source, so the system takes input as fast as it can process it.
type drainResult struct {
	n          int64
	rates      []float64 // tuples/s per measured pass, by the wall clock
	median, q3 float64   // of rates
	spread     float64   // of rates: quartile distance over median
	cal        calibration
	calibrated float64 // q3 in calibrated seconds: the phase's metric
	disturbed  string  // why the phase counts as disturbed, or empty
	last       *passResult
}

// drain measures a closed-loop phase. Its metric is the upper quartile of its
// passes' rates, not their median: what disturbs a pass on the measured
// container only ever slows it, at GOMAXPROCS=nproc to half speed when the
// host takes a vCPU away, and in an hour when it does that to every third
// pass the upper quartile still sits among the undisturbed passes where the
// median wanders between the two kinds (run-to-run spread of stateless_fused
// in such an hour: median 24%, upper quartile 17%; in quiet hours they agree).
// A disturbed attempt is discarded and
// the phase measured again, at most maxRepeats times. If every attempt was
// disturbed, the run reports the one whose passes spread least, and says so:
// on the measured container an hour can pass in which one phase in three
// spreads over maxPassSpread, the median of such a phase is still within a
// few percent of its neighbours' once calibrated, and a run that exits
// non-zero then is a benchmark the driver counts as broken. Only an attempt
// spread over grossPassSpread has no median worth the name: then the run is
// invalid and reports nothing.
func (r *runner) drain(procs int, full int64, t *tally) (*drainResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	n := r.size(full, r.in.block)
	var best *drainResult
	for attempt := 0; ; attempt++ {
		res := &drainResult{n: n, cal: calibration{nominal: r.w.probeNominal(procs)}}
		for i := -1; i < r.passes && res.disturbed == ""; i++ {
			if i < 0 && r.smoke {
				continue
			}
			pr, err := r.runPass(pass{n: n})
			if err != nil {
				return nil, err
			}
			t.add(pr.outcome)
			// One probe between any two passes, and one at either end.
			res.cal.take(r)
			if i < 0 {
				continue // warm-up
			}
			res.rates = append(res.rates, pr.rate())
			res.last = pr
			res.disturbed = epochsReason(pr)
		}
		res.median, res.spread = median(res.rates), spread(res.rates)
		_, res.q3 = quartiles(res.rates)
		res.calibrated = res.q3 * res.cal.factor()
		if res.disturbed == "" && !r.smoke && res.spread > maxPassSpread {
			res.disturbed = fmt.Sprintf("drain passes at GOMAXPROCS=%d spread %.0f%% (%.0f tuples/s)", procs, 100*res.spread, res.rates)
		}
		if res.disturbed == "" {
			return res, nil
		}
		if best == nil || res.spread < best.spread {
			best = res
		}
		if r.smoke || attempt == maxRepeats {
			break
		}
		r.repeats++
		fmt.Printf("  disturbed, measuring the phase again: %s\n", res.disturbed)
	}
	if best.spread > grossPassSpread {
		return nil, &invalidRun{fmt.Sprintf("%s; still so after %d repeats", best.disturbed, maxRepeats)}
	}
	fmt.Printf("  still disturbed after %d repeats, reporting the attempt that spread least: %s\n", maxRepeats, best.disturbed)
	return best, nil
}

// pacedSegments is how many equal stretches of its schedule a paced phase is
// cut into. Each stretch gets its own percentiles and the phase reports their
// median, the way a drain phase reports its median pass, so that a stall
// during one stretch does not set the phase's p90.
const pacedSegments = 16

// pacedResult is the open-loop phase.
type pacedResult struct {
	n                    int64
	samples              int
	p50, p90             time.Duration // median over the segments
	p99, max             time.Duration // over the whole phase: diagnostics
	lateP95, lateP99     time.Duration
	lateFailed           int64
	behindMid, behindEnd int64
	disturbed            string // why the phase counts as disturbed, or empty
	last                 *passResult
	counts               *counts // of an instrumented phase
}

// paced runs the open-loop phase over full tuples (before scaling);
// instrument attaches a telemetry registry and collects the engine's exported
// counts (traced runs only). A disturbed attempt is discarded and the phase
// measured again, at most maxRepeats times. No bounded metric comes from this
// phase, so one still disturbed then does not end the run: its result carries
// the reason, its latencies are printed as disturbed, and its results over the
// latency limit are not counted as failed — a generator that could not keep
// its schedule, or a backlog that grew, says that the host could not carry
// the fixed rate that minute, not that the plan lost results. What the plan
// produced is checked against the reference all the same.
func (r *runner) paced(full int64, instrument bool, t *tally) (*pacedResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.nproc))
	w := r.w
	n := r.size(full, w.burst)
	tick := time.Duration(float64(w.burst) / w.rate * float64(time.Second))
	for attempt := 0; ; attempt++ {
		p := pass{n: n, clk: &clock{burst: w.burst, tick: tick}}
		var pr *passResult
		var c *counts
		var err error
		if instrument {
			pr, c, err = r.instrumented(p)
		} else {
			pr, err = r.runPass(p)
		}
		if err != nil {
			return nil, err
		}
		res := &pacedResult{n: n, last: pr, counts: c, behindMid: pr.src.behindMid, behindEnd: pr.src.behindEnd}
		segLen := (n/w.burst*int64(tick))/pacedSegments + 1
		segs := make([][]int64, pacedSegments)
		all := make([]int64, 0, len(pr.lat))
		for _, s := range pr.lat {
			if s.due/segLen >= pacedSegments {
				// A window still open when the stream ends is flushed by
				// end-of-stream, before the punctuation that would have
				// closed it was due: not a latency.
				continue
			}
			all = append(all, s.lat)
			segs[s.due/segLen] = append(segs[s.due/segLen], s.lat)
			if s.lat > int64(w.limit) {
				res.lateFailed += pr.latStride
			}
		}
		res.samples = len(all)
		var p50s, p90s []float64
		for _, seg := range segs {
			if len(seg) == 0 {
				continue
			}
			slices.Sort(seg)
			p50s = append(p50s, float64(percentile(seg, 0.50)))
			p90s = append(p90s, float64(percentile(seg, 0.90)))
		}
		slices.Sort(all)
		res.p50, res.p90 = time.Duration(median(p50s)), time.Duration(median(p90s))
		res.p99, res.max = time.Duration(percentile(all, 0.99)), time.Duration(percentile(all, 1))
		late := slices.Clone(pr.src.late)
		slices.Sort(late)
		res.lateP95, res.lateP99 = time.Duration(percentile(late, 0.95)), time.Duration(percentile(late, 0.99))

		res.disturbed = epochsReason(pr)
		switch {
		case res.disturbed != "" || r.smoke:
		case res.lateP95 > maxLate:
			res.disturbed = fmt.Sprintf("generator ran %v late at p95", res.lateP95)
		case res.behindEnd > res.behindMid+w.burst:
			res.disturbed = fmt.Sprintf("backlog grew from %d tuples at the midpoint to %d at the end", res.behindMid, res.behindEnd)
		}
		if res.disturbed != "" && !r.smoke && attempt < maxRepeats {
			r.repeats++
			fmt.Printf("  disturbed, measuring the phase again: %s\n", res.disturbed)
			continue
		}
		if res.disturbed == "" {
			pr.failed += res.lateFailed
		} else {
			fmt.Printf("  still disturbed after %d repeats, latencies flagged and results over the limit not counted: %s\n", maxRepeats, res.disturbed)
		}
		t.add(pr.outcome)
		return res, nil
	}
}

// epochsReason reports a pass whose committed checkpoint epochs differ from
// the configured count.
func epochsReason(pr *passResult) string {
	if pr.epochs != pr.epochsWanted {
		return fmt.Sprintf("%d checkpoint epochs committed, %d configured", pr.epochs, pr.epochsWanted)
	}
	return ""
}
