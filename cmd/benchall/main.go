// Command benchall regenerates every table and figure from the paper's
// evaluation in one run and prints an EXPERIMENTS.md-style report:
// Tables 1–2 (characterizations), Figures 5–6 (imputation timeliness),
// and Figure 7 (speed-map scheme ladder across feedback frequencies).
//
// Usage:
//
//	benchall [-quick]
//
// -quick shrinks the workloads (~10× faster) while preserving every shape
// the paper reports. Performance is measured elsewhere: bench/ (see
// BENCHMARK.json) is the engine's benchmark.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-scale run")
	flag.Parse()

	fmt.Println("==================================================================")
	fmt.Println(" Reproduction: Inter-Operator Feedback in DSMSs via Punctuation")
	fmt.Println(" (Fernández-Moctezuma, Tufte, Li — CIDR 2009)")
	fmt.Println("==================================================================")
	fmt.Println()

	fmt.Println("--- Tables 1 & 2: operator characterizations ---")
	experiments.RenderTables(os.Stdout)
	fmt.Println()

	impCfg := experiments.ImputationConfig{}
	smBase := experiments.SpeedmapConfig{}
	if *quick {
		impCfg.Tuples = 2000
		impCfg.Rate = 4000
		smBase.Hours = 2
	}

	fmt.Println("--- Figures 5 & 6: imputation plan without / with feedback ---")
	for _, fb := range []bool{false, true} {
		cfg := impCfg
		cfg.Feedback = fb
		res, err := experiments.RunImputation(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println()
		res.Report(os.Stdout)
	}
	fmt.Println()

	fmt.Println("--- Figure 7: speed-map schemes × feedback frequency ---")
	results, err := experiments.SpeedmapSweep(smBase,
		[]experiments.Scheme{experiments.F0, experiments.F1, experiments.F2, experiments.F3},
		[]int{2, 4, 6})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Println()
	experiments.ReportSweep(os.Stdout, results)
	fmt.Println()
	fmt.Println("Paper shapes: Figures 5/6 — 97% useless without feedback vs 29% with;")
	fmt.Println("Figure 7 — F1 ≈ 50%, F2 ≈ 39%, F3 ≈ 35% of F0; flat in feedback frequency.")
}
