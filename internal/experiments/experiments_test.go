package experiments

import (
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

// TestTablesVerify regenerates Tables 1 and 2 and requires every row's
// enacted plan to satisfy Definition 1.
func TestTablesVerify(t *testing.T) {
	for _, r := range CountTable() {
		if !r.Verified {
			t.Errorf("Table 1 row %s failed Definition 1: %s", r.Punctuation, r.Detail)
		}
	}
	for _, r := range JoinTable() {
		if !r.Verified {
			t.Errorf("Table 2 row %s failed Definition 1: %s", r.Punctuation, r.Detail)
		}
	}
	var sb strings.Builder
	RenderTables(&sb)
	for _, want := range []string{"Table 1", "Table 2", "¬[g,*]", "¬[l,*,r]", "VERIFIED"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
	if strings.Contains(sb.String(), "VIOLATION") {
		t.Error("rendered tables contain a violation")
	}
}

// A Table 2 row verifies only when the join relays exactly what its plan
// propagates: a missing, extra or different pattern fails it.
func TestTableRelayCheck(t *testing.T) {
	left := punct.OnAttr(3, 0, punct.Eq(stream.Int(1)))
	other := punct.OnAttr(3, 0, punct.Eq(stream.Int(2)))
	plan := core.ResponsePlan{Propagate: []*punct.Pattern{&left, nil}}
	sent := func(p punct.Pattern) []core.Feedback { return []core.Feedback{core.NewAssumed(p)} }
	for _, c := range []struct {
		name string
		sent [][]core.Feedback
		want bool
	}{
		{"as planned", [][]core.Feedback{sent(left), nil}, true},
		{"missing", [][]core.Feedback{nil, nil}, false},
		{"extra", [][]core.Feedback{sent(left), sent(other)}, false},
		{"different", [][]core.Feedback{sent(other), nil}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := relays(plan, c.sent); got != c.want {
				t.Errorf("relays = %v, want %v", got, c.want)
			}
		})
	}
}

// compiled runs f once on the plan as described and once compiled: every
// experiment's plan must tell the same story both ways.
func compiled(t *testing.T, f func(t *testing.T, compile bool)) {
	for _, compile := range []bool{false, true} {
		t.Run(map[bool]string{false: "uncompiled", true: "compiled"}[compile], func(t *testing.T) { f(t, compile) })
	}
}

// TestImputationShape runs Experiment 1 at reduced scale and checks the
// paper's qualitative result: without feedback nearly all imputed tuples
// are useless; with feedback most become timely.
func TestImputationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock paced experiment")
	}
	compiled(t, func(t *testing.T, compile bool) {
		cfg := ImputationConfig{Tuples: 2000, Rate: 4000}
		no, err := runImputation(cfg, compile)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Feedback = true
		yes, err := runImputation(cfg, compile)
		if err != nil {
			t.Fatal(err)
		}
		no.Report(io.Discard)
		yes.Report(io.Discard)
		// The experiment races wall-clock imputation service time against the
		// arrival rate. When the host cannot sustain the source rate (loaded
		// CI, -race instrumentation), IMPUTE never falls behind, the overload
		// that drives Figures 5/6 does not materialize, and the absolute
		// fractions say nothing about the engine — so gate on the
		// precondition instead of failing on scheduler noise.
		if no.UselessFraction() < 0.65 {
			t.Skipf("overload precondition not met (no-feedback useless fraction = %.2f, want ≥ 0.65): wall-clock noise at this scale", no.UselessFraction())
		}
		// Past the gate the overload is proven real, so the feedback machinery
		// has no excuse: not engaging here is a regression, not noise.
		if yes.FeedbackSent == 0 || yes.SkippedAtImp == 0 {
			t.Errorf("feedback path must engage under proven overload (sent=%d skipped=%d)", yes.FeedbackSent, yes.SkippedAtImp)
		}
		// The paper's qualitative result is an ORDERING: feedback strictly
		// improves timeliness. This must hold whenever the race engaged.
		if yes.UselessFraction() >= no.UselessFraction() {
			t.Errorf("feedback must strictly improve timeliness: with=%.2f without=%.2f",
				yes.UselessFraction(), no.UselessFraction())
		}
		if yes.UselessFraction() > 0.60 {
			t.Errorf("feedback useless fraction = %.2f, want ≤ 0.60 (paper: 0.29)", yes.UselessFraction())
		}
		// Clean tuples take the cheap path and should essentially never lag;
		// tolerate a sliver of reordering noise from page batching rather
		// than demanding an exact zero of the wall clock.
		for name, r := range map[string]ImputationResult{"no-feedback": no, "feedback": yes} {
			late := r.Series.LateCount(0 /* Clean */, cfg.ToleranceMicros)
			if limit := int(r.CleanTotal / 50); late > limit { // ≤ 2%
				t.Errorf("%s: %d of %d clean tuples late (> %d allowed): clean path must stay timely", name, late, r.CleanTotal, limit)
			}
		}
	})
}

// TestSpeedmapShape runs Experiment 2 at reduced scale and checks the
// Figure 7 ladder: F0 > F1 > F2 > F3, with F1 a large first step. F0 has no
// feedback, so its work and results are a function of the input alone and
// must not depend on whether the plan was compiled. σQ → AVERAGE → viewer is
// one chain, so the viewer's feedback reaches AVERAGE and σQ within K items
// of being sent, long before the cells it describes are built: every count
// is exact, and a second run does exactly the same work.
func TestSpeedmapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU-heavy experiment")
	}
	base := SpeedmapConfig{Hours: 2, SwitchEveryMinutes: 2}
	var f0 []SpeedmapResult
	compiled(t, func(t *testing.T, compile bool) {
		var work, results, feedbacks [4]int64
		for s := F0; s <= F3; s++ {
			cfg := base
			cfg.Scheme = s
			r, err := runSpeedmap(cfg, compile)
			if err != nil {
				t.Fatal(err)
			}
			if s == F3 { // the scheme whose work depends on the most feedback hops
				again, err := runSpeedmap(cfg, compile)
				if err != nil {
					t.Fatal(err)
				}
				if again.WorkUnits != r.WorkUnits || again.Results != r.Results {
					t.Errorf("F3 run twice: work %d then %d, results %d then %d",
						r.WorkUnits, again.WorkUnits, r.Results, again.Results)
				}
			}
			if s == F0 {
				f0 = append(f0, r)
			}
			work[s] = r.WorkUnits
			results[s], feedbacks[s] = r.Results, r.Feedbacks
		}
		// Work units are deterministic: require the strict ladder there.
		if !(work[F0] > work[F1] && work[F1] > work[F2] && work[F2] > work[F3]) {
			t.Errorf("work ladder broken: F0=%d F1=%d F2=%d F3=%d", work[F0], work[F1], work[F2], work[F3])
		}
		// F1's output guard must save a large share (paper: ~50%).
		if f1 := float64(work[F1]) / float64(work[F0]); f1 > 0.75 {
			t.Errorf("F1 relative work = %.2f, want ≤ 0.75", f1)
		}
		if f3 := float64(work[F3]) / float64(work[F0]); f3 > 0.55 {
			t.Errorf("F3 relative work = %.2f, want ≤ 0.55", f3)
		}
		// F0 produces every (segment, minute) cell. A scheme suppresses exactly
		// what the viewer's feedback describes: the viewer announced periods
		// 1..feedbacks, each naming every segment but the visible one, so the
		// visible cell of those minutes and every cell of the others arrive,
		// and no described cell leaks.
		minutes, segments := int64(base.Hours)*60, int64(base.withDefaults().Segments)
		if results[F0] != minutes*segments {
			t.Fatalf("F0 produced %d results, want every one of %d cells", results[F0], minutes*segments)
		}
		for s := F1; s <= F3; s++ {
			undescribed := int64(0)
			for m := int64(0); m < minutes; m++ {
				if p := m / int64(base.SwitchEveryMinutes); p >= 1 && p <= feedbacks[s] {
					undescribed++
				} else {
					undescribed += segments
				}
			}
			if feedbacks[s] == 0 || results[s] != undescribed {
				t.Errorf("%v: %d results after %d feedbacks, want exactly the %d cells no feedback describes",
					s, results[s], feedbacks[s], undescribed)
			}
		}
	})
	if len(f0) == 2 && (f0[0].WorkUnits != f0[1].WorkUnits || f0[0].Results != f0[1].Results ||
		f0[0].FilterIn != f0[1].FilterIn || f0[0].Agg.Folded != f0[1].Agg.Folded) {
		t.Errorf("F0 uncompiled vs compiled: work %d vs %d, results %d vs %d, σQ in %d vs %d, folded %d vs %d",
			f0[0].WorkUnits, f0[1].WorkUnits, f0[0].Results, f0[1].Results,
			f0[0].FilterIn, f0[1].FilterIn, f0[0].Agg.Folded, f0[1].Agg.Folded)
	}
}

// TestFigure1bResultIdentity runs the motivating speed-map plan with and
// without the adaptive congestion feedback and requires the map output to
// be IDENTICAL — the feedback only removes work whose results the join
// would never use — while the vehicle branch demonstrably saves work. The
// map is the same compiled and not.
func TestFigure1bResultIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full plan runs")
	}
	var maps [][]stream.Tuple
	compiled(t, func(t *testing.T, compile bool) {
		off, err := runFigure1b(false, 1, compile)
		if err != nil {
			t.Fatal(err)
		}
		on, err := runFigure1b(true, 1, compile)
		if err != nil {
			t.Fatal(err)
		}
		sortRows(off.MapRows)
		sortRows(on.MapRows)
		maps = append(maps, off.MapRows, on.MapRows)
		if on.AdaptiveSent == 0 {
			t.Fatal("join must discover uncongested windows")
		}
		if on.CleanerInput == 0 || on.CleanerInput+on.ProbesSkipped != off.CleanerInput {
			t.Errorf("cleaner saw %d readings with feedback (%d more suppressed at the source), %d without",
				on.CleanerInput, on.ProbesSkipped, off.CleanerInput)
		}
		saved := on.CleanerSkipped + on.AggFoldsSkipped + on.ProbesSkipped
		if saved == 0 {
			t.Fatal("feedback must save vehicle-branch work")
		}
		t.Logf("%d map rows; saved: %d cleanings, %d folds, %d generations (%d adaptive feedbacks)",
			len(on.MapRows), on.CleanerSkipped, on.AggFoldsSkipped, on.ProbesSkipped, on.AdaptiveSent)
	})
	for i := 1; i < len(maps); i++ {
		if len(maps[i]) != len(maps[0]) {
			t.Fatalf("map %d has %d rows, map 0 %d", i, len(maps[i]), len(maps[0]))
		}
		for j := range maps[0] {
			if !slices.EqualFunc(maps[0][j].Values, maps[i][j].Values, stream.Value.Equal) {
				t.Fatalf("map %d row %d differs: %v vs %v", i, j, maps[i][j], maps[0][j])
			}
		}
	}
}

// TestSpeedmapFeedbackFrequencyOverhead checks the paper's "no discernible
// overhead" claim across switch frequencies using deterministic work units.
func TestSpeedmapFeedbackFrequencyOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU-heavy experiment")
	}
	compiled(t, func(t *testing.T, compile bool) {
		var works []int64
		for _, freq := range []int{2, 4, 6} {
			r, err := runSpeedmap(SpeedmapConfig{Hours: 1, Scheme: F3, SwitchEveryMinutes: freq}, compile)
			if err != nil {
				t.Fatal(err)
			}
			works = append(works, r.WorkUnits)
			if r.Feedbacks == 0 {
				t.Fatalf("freq %d: no feedback sent", freq)
			}
		}
		// Different frequencies change which segments are visible when, so
		// work varies slightly; it must not blow up with frequency.
		for i := 1; i < len(works); i++ {
			ratio := float64(works[0]) / float64(works[i])
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("frequency sweep work imbalance: %v", works)
			}
		}
	})
}

// sortRows orders map rows canonically for comparison across runs.
func sortRows(rows []stream.Tuple) {
	key := func(t stream.Tuple) string {
		idx := make([]int, t.Arity())
		for i := range idx {
			idx[i] = i
		}
		return t.Key(idx)
	}
	sort.Slice(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
}
