// Command experiments regenerates the tables and figures of the paper's
// evaluation through the real concurrent runtime:
//
//	tables      Tables 1–2: the COUNT and JOIN feedback characterizations,
//	            each row enacted on a live operator and verified against
//	            Definition 1 (correct exploitation)
//	imputation  Figures 5–6: the imputation plan without and with feedback,
//	            reporting the fraction of imputed tuples that became useless
//	speedmap    Figure 7: the speed-map plan under schemes F0–F3 across
//	            feedback frequencies, F0 the 100% baseline
//	figure1b    Figure 1(b): the motivating speed map, probe data cleaned and
//	            aggregated for an outer join with sensor data, without and
//	            with the join's congestion feedback
//	zoom        §3.3: the map viewer zooms in and out, its assumed feedback
//	            expiring with the stream's punctuation
//	demanded    §3.4: the currency speculator demands a partial average
//	desired     §3.4: the impatient join asks PRIORITIZE for its subset first
//	all         every section in order, as one report
//
// Usage:
//
//	experiments [-quick] <tables|imputation|speedmap|figure1b|zoom|demanded|desired|all>
//
// -quick shrinks the workloads (~10× faster) while preserving every shape
// the paper reports; the three §3 scenarios are small at either scale.
// Performance is measured elsewhere: bench/ (see BENCHMARK.json) is the
// engine's benchmark.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

// section is one experiment: the header its report starts with and the run
// that writes the rest.
type section struct {
	name, header string
	run          func(w io.Writer, quick bool) error
}

var sections = []section{
	{"tables", "--- Tables 1 & 2: operator characterizations ---", runTables},
	{"imputation", "--- Figures 5 & 6: imputation plan without / with feedback ---", runImputation},
	{"speedmap", "--- Figure 7: speed-map schemes × feedback frequency ---", runSpeedmap},
	{"figure1b", "--- Figure 1(b): the speed map without / with congestion feedback ---", runFigure1b},
	{"zoom", "--- §3.3: the map viewer zooms (event-driven assumed feedback) ---", scenario(experiments.Zoom)},
	{"demanded", "--- §3.4: the currency speculator (demanded feedback) ---", scenario(experiments.Demanded)},
	{"desired", "--- §3.4: the impatient join (desired feedback) ---", scenario(experiments.Desired)},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced-scale run")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: experiments [-quick] <%s>\n", strings.Join(names(), "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	todo := sections
	if name := fs.Arg(0); name != "all" {
		todo = nil
		for _, s := range sections {
			if s.name == name {
				todo = []section{s}
			}
		}
		if todo == nil {
			fmt.Fprintf(stderr, "experiments: unknown experiment %q (have %s)\n", name, strings.Join(names(), ", "))
			return 2
		}
	}
	for _, s := range todo {
		fmt.Fprintln(stdout, s.header)
		if err := s.run(stdout, *quick); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func names() []string {
	out := make([]string, 0, len(sections)+1)
	for _, s := range sections {
		out = append(out, s.name)
	}
	return append(out, "all")
}

func runTables(w io.Writer, _ bool) error {
	experiments.RenderTables(w)
	return nil
}

func runImputation(w io.Writer, quick bool) error {
	cfg := experiments.ImputationConfig{}
	if quick {
		cfg.Tuples, cfg.Rate = 2000, 4000
	}
	for _, fb := range []bool{false, true} {
		cfg.Feedback = fb
		res, err := experiments.RunImputation(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		res.Report(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Paper (Figures 5/6): 97% of imputed tuples useless without feedback, 29% with.")
	return nil
}

func runSpeedmap(w io.Writer, quick bool) error {
	cfg := experiments.SpeedmapConfig{}
	if quick {
		cfg.Hours = 1
	}
	results, err := experiments.SpeedmapSweep(cfg,
		[]experiments.Scheme{experiments.F0, experiments.F1, experiments.F2, experiments.F3},
		[]int{2, 4, 6})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	experiments.ReportSweep(w, results)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Paper (Figure 7): F1 ≈ 50%, F2 ≈ 39%, F3 ≈ 35% of the F0 baseline;")
	fmt.Fprintln(w, "execution time flat in feedback frequency.")
	return nil
}

func runFigure1b(w io.Writer, quick bool) error {
	hours := 3 // 6:30 to 9:30, through the morning rush
	if quick {
		hours = 1
	}
	var rows [2][2]int64
	for i, fb := range []bool{false, true} {
		r, err := experiments.RunFigure1b(fb, hours)
		if err != nil {
			return err
		}
		rows[i] = [2]int64{r.Joined, r.SensorOnly}
		label := "without feedback:"
		if fb {
			label = "with feedback:"
		}
		fmt.Fprintf(w, "%-17s %d map rows joined with probe data, %d sensor-only (outer); %d probe readings cleaned\n",
			label, r.Joined, r.SensorOnly, r.CleanerInput)
		if fb {
			fmt.Fprintf(w, "  the join sent %d adaptive feedback punctuations; saved, as the schedule allows:\n", r.AdaptiveSent)
			fmt.Fprintf(w, "  %d probe readings never generated, %d suppressed before the cleaning cost\n", r.ProbesSkipped, r.CleanerSkipped)
		}
	}
	if rows[0] != rows[1] {
		fmt.Fprintln(w, "VIOLATION: the feedback changed the map")
	}
	return nil
}

// scenario is a section that runs at one scale.
func scenario(run func(io.Writer) error) func(io.Writer, bool) error {
	return func(w io.Writer, _ bool) error { return run(w) }
}
