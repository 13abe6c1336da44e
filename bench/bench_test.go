package main

import (
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The tests run every workload at smoke size and assert what must hold on
// any machine: outputs equal the reference, nothing failed, and the names
// printed are exactly those BENCHMARK.json promises. They assert nothing
// about time.

func specNames(ms []metricSpec) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	slices.Sort(names)
	return names
}

func resultNames(res *result) []string {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if want := spec.workloadNames(); !slices.Equal(have, want) {
		t.Errorf("workloads %v, BENCHMARK.json names %v", have, want)
	}
	if spec.RunSeconds != fullSeconds {
		t.Errorf("run_seconds %d, tuple counts sized for %d", spec.RunSeconds, fullSeconds)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first *result
			// Twice with one seed: every generated-input and reference count
			// must repeat exactly.
			for range 2 {
				res, err := newRunner(w, 7, 0.01, true).endToEnd()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if got, want := resultNames(res), specNames(spec.EndToEnd); !slices.Equal(got, want) {
					t.Errorf("end-to-end metrics %v, BENCHMARK.json names %v", got, want)
				}
				if first == nil {
					first = res
				} else if res.Attempted != first.Attempted {
					t.Errorf("attempted %d then %d for one seed", first.Attempted, res.Attempted)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := newRunner(w, 7, 0.01, true).traced(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			if got, want := resultNames(res), specNames(spec.PerLayer); !slices.Equal(got, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json names %v", got, want)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			if w.ckptEvery > 0 && res.Metrics["snapshot.epochs"].Value == 0 {
				t.Error("no checkpoint epoch committed")
			}
			if w.name == "speedmap_feedback" {
				if res.Metrics["core.suppressed_tuples"].Value == 0 || res.Metrics["core.feedback_exploited"].Value == 0 {
					t.Errorf("feedback not exploited: %v suppressed, %v feedback messages exploited",
						res.Metrics["core.suppressed_tuples"].Value, res.Metrics["core.feedback_exploited"].Value)
				}
			}
		})
	}
}

// TestReferenceCatchesDifference: the check fails on a missing, an extra and
// a changed result.
func TestReferenceCatchesDifference(t *testing.T) {
	in := zipfLateInput(3)
	avgs := windowAverages(in, 20*punctEvery, groupWindow, keepFast)
	want := averagesDigest(avgs, groupWindow)
	if _, failed := checkDigest(want, want); failed != 0 {
		t.Fatalf("reference differs from itself: %d", failed)
	}
	var k groupKey
	for k = range avgs {
		break
	}
	changed := avgs[k]
	avgs[k] = changed + 1e-9
	if _, failed := checkDigest(averagesDigest(avgs, groupWindow), want); failed == 0 {
		t.Error("a changed average was not caught")
	}
	delete(avgs, k)
	if _, failed := checkDigest(averagesDigest(avgs, groupWindow), want); failed != 1 {
		t.Errorf("a missing result counted as %d failures", failed)
	}

	ref := map[groupKey]float64{{1, 0}: 50, {1, 1}: 51, {2, 0}: 52, {2, 1}: 53}
	cell := func(k groupKey) mapResult {
		return mapResult{segment: k.segment, wstart: k.wid * mapWindowUS, avg: math.Float64bits(ref[k])}
	}
	// Period 1 (windows 2 and 3) shows segment 1: (2,0) is described.
	att, failed, leaked := checkMap([]mapResult{cell(groupKey{1, 0}), cell(groupKey{1, 1}), cell(groupKey{2, 1})}, 1, ref)
	if att != 3 || failed != 0 || leaked != 0 {
		t.Errorf("attempted %d failed %d leaked %d", att, failed, leaked)
	}
	_, failed, leaked = checkMap([]mapResult{cell(groupKey{1, 0}), cell(groupKey{2, 0}), cell(groupKey{2, 1})}, 1, ref)
	if failed != 1 || leaked != 1 {
		t.Errorf("missing (1,1) and leaked (2,0): failed %d leaked %d", failed, leaked)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles %v %v, want 1.75 5.25", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for i, v := range []float64{100, 101, 99, 100, 102} {
		for _, w := range workloads {
			res := func(scale float64) *result {
				return &result{Correct: true, Attempted: 1, Metrics: map[string]metric{
					"tuples_per_s": {v * scale, "1/s"}, "peak_rss_mb": {v, "MB"}}}
			}
			if err := appendRecord(a, w.name, uint64(i), res(1)); err != nil {
				t.Fatal(err)
			}
			if err := appendRecord(b, w.name, uint64(i), res(0.5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out strings.Builder
	if err := compareFiles(&out, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"outside bound", "within bound", "needs at least two runs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
