package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runRecord is one line of a -record file: one workload's result for one
// seed.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Result   *result `json:"result"`
}

func appendRecord(path, workload string, seed uint64, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(runRecord{workload, seed, res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords groups a -record file's values by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("%s:%d: record without a result", path, ln)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles over the runs in the two files, B's median as a ratio
// of A's, and a verdict against the metric's bound in BENCHMARK.json:
// "unresolved" when either side's own quartile spread is wider than the
// bound (the runs cannot tell a change of that size from noise), otherwise
// "within bound" or "outside bound" by whether B is worse than A by more
// than the bound.
func compareFiles(out io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two record files, got %d", len(paths))
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readRecords(paths[0])
	if err != nil {
		return err
	}
	b, err := readRecords(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A = %s, B = %s; ratio = median B / median A\n", paths[0], paths[1])
	fmt.Fprintf(out, "%-20s %-16s %5s %12s %12s %12s %12s %12s %12s %7s %6s  %s\n",
		"workload", "metric", "runs", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "ratio", "bound", "verdict")
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			av, bv := a[w][m.Name], b[w][m.Name]
			if len(av) < 2 || len(bv) < 2 {
				fmt.Fprintf(out, "%-20s %-16s %5s needs at least two runs a side\n", w, m.Name,
					fmt.Sprintf("%d/%d", len(av), len(bv)))
				continue
			}
			am, bm := median(av), median(bv)
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			worse := bm/am - 1
			if m.Better == "higher" {
				worse = 1 - bm/am
			}
			verdict := "within bound"
			switch {
			case (aq3-aq1)/am > m.Bound || (bq3-bq1)/bm > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "outside bound"
			}
			fmt.Fprintf(out, "%-20s %-16s %5s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %7.4f %6.2f  %s\n",
				w, m.Name, fmt.Sprintf("%d/%d", len(av), len(bv)), aq1, am, aq3, bq1, bm, bq3, bm/am, m.Bound, verdict)
		}
	}
	return nil
}
