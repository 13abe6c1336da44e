// Command bench is the engine's benchmark: four workloads, each run through
// the same three phases (single-threaded drain, all-cores drain, fixed-rate
// paced), every output checked against a reference computed here from the
// same generated input. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// ballastBytes pins the collector's cadence: with a near-empty live heap a
// streaming source makes the collector cycle some 200 times a second and
// identical passes swing by half; over a fixed 128 MiB of live (never
// touched, so never resident) bytes at GOGC=100 it cycles once per 128 MiB
// allocated, whatever the plan's own heap.
const (
	ballastBytes = 128 << 20
	gcPercent    = 100
)

var ballast []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload in BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", fullSeconds, "measuring time the tuple counts are scaled to")
		trace   = flag.Int("trace", 0, "1: the traced run, reporting the per-layer metrics instead")
		smoke   = flag.Bool("smoke", false, "1/100 of the tuple counts, one pass per phase, no timing guards")
		record  = flag.String("record", "", "append each workload's result to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two -record files: bench -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if err := compareFiles(os.Stdout, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	names := spec.workloadNames()
	if *name != "" {
		names = []string{*name}
	}
	scale := *seconds / fullSeconds
	if *smoke {
		scale = 0.01
	}

	debug.SetGCPercent(gcPercent)
	ballast = make([]byte, ballastBytes)

	for _, n := range names {
		w := workloadByName(n)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", n))
		}
		fmt.Printf("== %s seed=%d\n", w.name, *seed)
		printEnv(*seed, scale)
		r := newRunner(w, *seed, scale, *smoke)
		var res *result
		if *trace == 1 {
			res, err = r.traced(spec)
		} else {
			res, err = r.endToEnd()
		}
		if err != nil {
			fatal(err)
		}
		if *record != "" {
			if err := appendRecord(*record, w.name, *seed, res); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	runtime.KeepAlive(ballast)
}

// fatal ends the program without a result line. An invalid run — a phase the
// host would not let be measured undisturbed — says so on standard output,
// where the run's other lines are, and exits with 2; any other failure exits
// with 1.
func fatal(err error) {
	var inv *invalidRun
	if errors.As(err, &inv) {
		fmt.Println(err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// commit is the checkout's revision, set by run.sh at link time.
var commit = "unknown"

// printEnv prints what a number from this run depends on besides the code.
func printEnv(seed uint64, scale float64) {
	n := runtime.NumCPU()
	fmt.Printf("env: nproc=%d gomaxprocs(drain_1p=1 drain_np=%d paced=%d) %s %s/%s commit=%s gogc=%d ballast=%dMiB seed=%d scale=%.3g\n",
		n, n, n, runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, gcPercent, ballastBytes>>20, seed, scale)
}

// peakRSSMB is the process's resident high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the user+system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd runs the three phases with tracing off and reports the
// end-to-end metrics.
func (r *runner) endToEnd() (*result, error) {
	setup, err := r.setupTime()
	if err != nil {
		return nil, err
	}
	fmt.Printf("  setup: median of %d by the wall clock %.6f s; %s\n", r.setups, setup.wall.Seconds(), &setup.cal)
	var t tally
	d1, err := r.drain(1, r.w.drain1p, &t)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  drain_1p: %d tuples/pass, passes %.0f tuples/s, median %.0f, upper quartile %.0f; %s\n", d1.n, d1.rates, d1.median, d1.q3, &d1.cal)
	dn, err := r.drain(r.nproc, r.w.drainNp, &t)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  drain_np: %d tuples/pass, passes %.0f tuples/s, median %.0f, upper quartile %.0f; %s\n", dn.n, dn.rates, dn.median, dn.q3, &dn.cal)
	// Read before the paced phase: when the host cannot carry the fixed rate,
	// that phase's heap overshoots with its backlog, repeats included, and no
	// bounded metric is taken from it.
	peakRSS := peakRSSMB()
	pc, err := r.paced(r.w.pacedTuples, false, &t)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  paced: %d tuples at %.0f/s in bursts of %d, %d latency samples, generator late p99 %.3f ms, behind %d→%d tuples, %d results over the %v limit\n",
		pc.n, r.w.rate, r.w.burst, pc.samples, ms(pc.lateP99), pc.behindMid, pc.behindEnd, pc.lateFailed, r.w.limit)
	flag := ""
	if pc.disturbed != "" {
		flag = " (disturbed phase)"
	}
	fmt.Printf("  diagnostics: latency p50 %.4f p90 %.4f p99 %.4f max %.4f ms%s; %d phases measured again\n",
		ms(pc.p50), ms(pc.p90), ms(pc.p99), ms(pc.max), flag, r.repeats)

	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{
		"setup_s":         {setup.calibrated.Seconds(), "s"},
		"tuples_per_s":    {dn.calibrated, "1/s"},
		"tuples_per_s_1p": {d1.calibrated, "1/s"},
		"peak_rss_mb":     {peakRSS, "MB"},
	}}
	printMetrics(res)
	fmt.Printf("  failed_frac %.6g (%d failed of %d attempted)\n", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	return res, nil
}

// setupBlocks is how much input a set-up sample runs through its fresh plan:
// enough for every node to have started, opened and handed pages on.
const setupBlocks = 16

// setupSamples is how many times a run sets a plan up; setupProbes is how
// many probes it takes before them and again after them.
const (
	setupSamples = 101
	setupProbes  = 2
)

// setupResult is the set-up time: the median sample by the wall clock, and
// the same in calibrated seconds, which is the metric.
type setupResult struct {
	wall, calibrated time.Duration
	cal              calibration
}

// setupTime is the median time from nothing to a plan that has produced its
// first results: generator tables, plan build, Compile, connections and
// handshake, then a run over the first setupBlocks blocks of input, which
// pays whatever the plan sets up lazily. Timed this way, work a change moves
// out of the measured passes and into set-up still shows.
func (r *runner) setupTime() (*setupResult, error) {
	res := &setupResult{cal: calibration{nominal: r.w.probeNominal(r.nproc)}}
	for range setupProbes {
		res.cal.take(r)
	}
	times := make([]float64, r.setups)
	for i := range times {
		start := time.Now()
		in := r.w.input(1)
		n := setupBlocks * in.block
		rg, err := r.w.build(r.w, &source{name: "gen", in: in, n: n}, pass{n: n})
		if err != nil {
			return nil, err
		}
		err = rg.run()
		times[i] = float64(time.Since(start))
		rg.close()
		if err != nil {
			return nil, err
		}
	}
	for range setupProbes {
		res.cal.take(r)
	}
	res.wall = time.Duration(median(times))
	res.calibrated = time.Duration(float64(res.wall) / res.cal.factor())
	return res, nil
}
