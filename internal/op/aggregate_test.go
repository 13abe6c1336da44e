package op

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// minuteAvg builds the paper's AVERAGE: per-segment one-minute speed
// averages over the traffic schema.
func minuteAvg(mode FeedbackMode, propagate bool) *Aggregate {
	return &Aggregate{
		OpName: "average", In: trafficSchema, Kind: core.AggAvg,
		TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
		Window: window.Tumbling(60_000_000), ValueName: "avg_speed",
		Mode: mode, Propagate: propagate,
	}
}

const minute = int64(60_000_000)

func TestAggregateSchemaShape(t *testing.T) {
	a := minuteAvg(FeedbackIgnore, false)
	out := a.OutSchemas()[0]
	if out.Arity() != 3 || out.Index("segment") != 0 || out.Index("wstart") != 1 || out.Index("avg_speed") != 2 {
		t.Fatalf("output schema: %s", out)
	}
}

func TestAggregateWindowsClosedByPunctuation(t *testing.T) {
	a := minuteAvg(FeedbackIgnore, false)
	var early, got []stream.Tuple
	var ps []punct.Embedded
	var st AggregateStats
	exec.Drive(a,
		exec.Tuples(0,
			traffic(1, 1, 10*1_000_000, 40),
			traffic(1, 2, 20*1_000_000, 60),
			traffic(2, 1, 30*1_000_000, 30),
			traffic(1, 1, 70*1_000_000, 55), // next window
		),
		outAt(&early),
		exec.Punct(0, tsPunct(minute-1)),
		exec.Call(func(tr *exec.Trace) { got, ps, st = tr.Out[0].Tuples(), puncts(tr.Out[0]), a.Stats() }))
	if len(early) != 0 {
		t.Fatal("nothing may be emitted before punctuation")
	}
	if len(got) != 2 {
		t.Fatalf("window 0 results: %v", got)
	}
	// Deterministic order: segment 1 then 2 (sorted keys).
	if got[0].At(0).AsInt() != 1 || got[0].At(2).AsFloat() != 50 {
		t.Errorf("segment 1 avg: %v", got[0])
	}
	if got[1].At(0).AsInt() != 2 || got[1].At(2).AsFloat() != 30 {
		t.Errorf("segment 2 avg: %v", got[1])
	}
	// Output punctuation delimits wstart.
	if len(ps) != 1 || ps[0].Pattern.Bound()[0] != 1 {
		t.Fatalf("output punctuation: %v", ps)
	}
	// State purged: window 1 is still open.
	if st.OpenGroups != 1 {
		t.Errorf("open groups = %d", st.OpenGroups)
	}
}

func TestAggregateEOSFlushes(t *testing.T) {
	a := minuteAvg(FeedbackIgnore, false)
	got := exec.Drive(a, exec.Tuples(0, traffic(1, 1, 10, 42)), exec.EOS(0)).Out[0].Tuples()
	if len(got) != 1 || got[0].At(2).AsFloat() != 42 {
		t.Fatalf("EOS flush: %v", got)
	}
}

func TestAggregateKinds(t *testing.T) {
	cases := []struct {
		kind core.AggKind
		want float64
	}{
		{core.AggCount, 3}, {core.AggSum, 150}, {core.AggAvg, 50},
		{core.AggMax, 70}, {core.AggMin, 30},
	}
	for _, tc := range cases {
		a := &Aggregate{
			In: trafficSchema, Kind: tc.kind, TsAttr: 2, ValAttr: 3,
			GroupBy: []int{0}, Window: window.Tumbling(minute),
		}
		got := exec.Drive(a, exec.Tuples(0, traffic(1, 1, 10, 50), traffic(1, 2, 20, 30), traffic(1, 3, 30, 70)),
			exec.EOS(0)).Out[0].Tuples()
		if len(got) != 1 || got[0].At(2).AsFloat() != tc.want {
			t.Errorf("%v: got %v, want %g", tc.kind, got, tc.want)
		}
	}
}

func TestAggregateSlidingWindows(t *testing.T) {
	a := &Aggregate{
		In: trafficSchema, Kind: core.AggCount, TsAttr: 2, ValAttr: -1,
		GroupBy: []int{}, Window: window.Sliding(60, 20),
	}
	got := exec.Drive(a, exec.Tuples(0, traffic(1, 1, 70, 50)), // windows 1,2,3 (starts 20,40,60)
		exec.EOS(0)).Out[0].Tuples()
	if len(got) != 3 {
		t.Fatalf("sliding extents: %v", got)
	}
	for _, tp := range got {
		if tp.At(1).AsFloat() != 1 {
			t.Errorf("each window counts once: %v", tp)
		}
	}
}

// TestAggregateLateTuplesLeaveCachedWindow folds values that jump back behind
// the fold's cached window assignment (late tuples), forward past it and
// before window 0, over a sliding spec whose range is no multiple of its
// slide: each still lands in exactly the windows WindowsOf names.
func TestAggregateLateTuplesLeaveCachedWindow(t *testing.T) {
	spec := window.Spec{Range: 50, Slide: 20}
	a := &Aggregate{In: trafficSchema, Kind: core.AggSum, TsAttr: 2, ValAttr: 3, Window: spec}
	var in []stream.Tuple
	want := map[int64]float64{} // wstart → sum
	for i, ts := range []int64{100, 101, 140, 45, 141, 102, 3, -10, 100, 26, 27, 139, 46} {
		speed := float64(i + 1)
		in = append(in, traffic(1, 1, ts, speed))
		lo, hi := spec.WindowsOf(ts)
		for w := lo; w <= hi; w++ {
			start, _ := spec.Extent(w)
			want[start] += speed
		}
	}
	got := map[int64]float64{}
	for _, tp := range exec.Drive(a, exec.Tuples(0, in...), exec.EOS(0)).Out[0].Tuples() {
		got[tp.At(0).Micros()] += tp.At(1).AsFloat()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-window sums\n got %v\nwant %v", got, want)
	}
}

func TestAggregateGroupFeedbackF2Semantics(t *testing.T) {
	// Feedback on a group (segment): purge state, guard input.
	a := minuteAvg(FeedbackExploit, false)
	var got []stream.Tuple
	var st AggregateStats
	exec.Drive(a,
		exec.Tuples(0, traffic(3, 1, 10*1_000_000, 40), traffic(4, 1, 10*1_000_000, 50)),
		// ¬[3, *, *] over output (segment, wstart, avg).
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3))))),
		// New tuples for segment 3 must not recreate the group.
		exec.Tuples(0, traffic(3, 2, 20*1_000_000, 45)),
		exec.Punct(0, tsPunct(minute-1)),
		exec.Call(func(tr *exec.Trace) { got, st = tr.Out[0].Tuples(), a.Stats() }))
	if len(got) != 1 || got[0].At(0).AsInt() != 4 {
		t.Fatalf("segment 3 must be suppressed entirely: %v", got)
	}
	if st.Purged != 1 || st.InSuppressed != 1 {
		t.Errorf("stats: %+v", st)
	}
	resp := a.Trace()
	if len(resp) != 1 || !resp[0].Did(core.ActPurgeState) || !resp[0].Did(core.ActGuardInput) {
		t.Errorf("response: %+v", resp)
	}
}

func TestAggregateGuardOutputModeF1Semantics(t *testing.T) {
	// F1: only the output is guarded; aggregation work still happens.
	a := minuteAvg(FeedbackGuardOutput, false)
	var got []stream.Tuple
	var st AggregateStats
	exec.Drive(a,
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3))))),
		exec.Tuples(0, traffic(3, 1, 10*1_000_000, 40)),
		exec.Punct(0, tsPunct(minute-1)),
		exec.Call(func(tr *exec.Trace) { got, st = tr.Out[0].Tuples(), a.Stats() }))
	if len(got) != 0 {
		t.Fatal("output must be guarded")
	}
	if st.Folded != 1 {
		t.Error("F1 must still fold tuples into state")
	}
	if st.OutSuppressed != 1 {
		t.Errorf("out suppressed = %d", st.OutSuppressed)
	}
}

func TestAggregateValueFeedbackMonotone(t *testing.T) {
	// The §3.5 MAX example: ¬[*,*,≥50].
	a := &Aggregate{
		In: trafficSchema, Kind: core.AggMax, TsAttr: 2, ValAttr: 3,
		GroupBy: []int{0}, Window: window.Tumbling(minute), Mode: FeedbackExploit,
	}
	got := exec.Drive(a,
		exec.Tuples(0,
			traffic(1, 1, 10*1_000_000, 51), // partial max 51 ≥ 50
			traffic(2, 1, 10*1_000_000, 40), // partial max 40
		),
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(50))))),
		// The matching window is closed (purged); a tuple with value 40 for
		// segment 1 must NOT recreate it (it would yield an incorrect 40).
		exec.Tuples(0, traffic(1, 2, 20*1_000_000, 40)),
		exec.Punct(0, tsPunct(minute-1)),
	).Out[0].Tuples()
	if len(got) != 1 || got[0].At(0).AsInt() != 2 || got[0].At(2).AsFloat() != 40 {
		t.Fatalf("only segment 2's window may emit: %v", got)
	}
	resp := a.Trace()
	if len(resp) != 1 || !resp[0].Did(core.ActGuardInput) {
		t.Errorf("response: %+v", resp)
	}
}

func TestAggregateValueFeedbackNonMonotoneGuardsOutputOnly(t *testing.T) {
	// AVERAGE with ¬[*,*,≥50] (§3.5): purging would be incorrect because
	// the average can drop below 50; only the output may be guarded.
	a := minuteAvg(FeedbackExploit, false)
	got := exec.Drive(a,
		exec.Tuples(0, traffic(1, 1, 10*1_000_000, 51)),
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(50))))),
		// The window must still be live: new low reading drops the average.
		exec.Tuples(0, traffic(1, 2, 20*1_000_000, 30)),
		exec.Punct(0, tsPunct(minute-1)),
	).Out[0].Tuples()
	if len(got) != 1 || got[0].At(2).AsFloat() != 40.5 {
		t.Fatalf("average must emerge unsuppressed at 40.5: %v", got)
	}
	if a.Stats().Purged != 0 {
		t.Error("non-monotone aggregate must not purge on value feedback")
	}
}

func TestAggregateValueFeedbackSuppresssesMatchingResults(t *testing.T) {
	a := minuteAvg(FeedbackExploit, false)
	got := exec.Drive(a,
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(50))))),
		exec.Tuples(0,
			traffic(1, 1, 10*1_000_000, 60), // avg 60: in subset
			traffic(2, 1, 10*1_000_000, 40), // avg 40: out
		),
		exec.Punct(0, tsPunct(minute-1)),
	).Out[0].Tuples()
	if len(got) != 1 || got[0].At(0).AsInt() != 2 {
		t.Fatalf("avg ≥ 50 must be suppressed at output: %v", got)
	}
}

func TestAggregatePropagatesGroupFeedback(t *testing.T) {
	// F3: segment feedback maps to the input schema and goes upstream.
	a := minuteAvg(FeedbackExploit, true)
	sent := exec.Drive(a, exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(7)))))).Sent[0]
	if len(sent) != 1 {
		t.Fatal("group feedback must propagate")
	}
	p := sent[0].Pattern
	if p.Arity() != 4 || p.Pred(0).Op != punct.EQ || p.Pred(0).Val.AsInt() != 7 {
		t.Errorf("propagated: %v", p)
	}
}

func TestAggregateWindowBoundFeedbackTranslation(t *testing.T) {
	// Example 2: "windows w3 and w4 are not required" — here expressed as
	// ¬[*, wstart≤X, *]; the aggregate must translate to an input-ts
	// bound rather than ask a bottom filter to drop tuples (which would
	// be incorrect for sliding windows; for tumbling it is exact).
	a := minuteAvg(FeedbackExploit, true)
	var got []stream.Tuple
	tr := exec.Drive(a,
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(minute))))), // windows 0,1
		// And locally: tuples for windows 0/1 are suppressed at input.
		exec.Tuples(0,
			traffic(1, 1, 90*1_000_000, 50),  // window 1
			traffic(1, 1, 130*1_000_000, 60), // window 2
		),
		exec.Punct(0, tsPunct(3*minute)),
		outAt(&got))
	sent := tr.Sent[0]
	if len(sent) != 1 {
		t.Fatal("window-bound feedback must propagate via translation")
	}
	pr := sent[0].Pattern.Pred(2)
	if pr.Op != punct.LT || pr.Val.Micros() != 2*minute {
		t.Errorf("translated bound: %v (want < 2 minutes)", sent[0].Pattern)
	}
	if len(got) != 1 || got[0].At(2).AsFloat() != 60 {
		t.Fatalf("suppressed windows must not emit: %v", got)
	}
}

func TestAggregateDemandedEmitsPartials(t *testing.T) {
	// §3.4's financial speculator: demanded feedback unblocks partials.
	a := minuteAvg(FeedbackExploit, false)
	var partial, got []stream.Tuple
	exec.Drive(a,
		exec.Tuples(0, traffic(1, 1, 10*1_000_000, 50), traffic(2, 1, 10*1_000_000, 60)),
		exec.Feedback(0, core.NewDemanded(punct.OnAttr(3, 0, punct.Eq(stream.Int(1))))),
		outAt(&partial),
		// The final result still arrives at window close.
		exec.Tuples(0, traffic(1, 2, 20*1_000_000, 70)),
		exec.Punct(0, tsPunct(minute-1)),
		outAt(&got))
	if len(partial) != 1 || partial[0].At(0).AsInt() != 1 || partial[0].At(2).AsFloat() != 50 {
		t.Fatalf("demanded partial: %v", partial)
	}
	if len(got) != 3 {
		t.Fatalf("final results after partial: %v", got)
	}
	if a.Stats().Partials != 1 {
		t.Error("partials counter")
	}

	// Sliding windows hold several windows open at once: the partials leave
	// in the flush's order — window 9 before window 10, by number, and within
	// a window the segment whose first tuple arrived first (2, here).
	s := &Aggregate{In: trafficSchema, Kind: core.AggCount, TsAttr: 2, ValAttr: -1, GroupBy: []int{0},
		Window: window.Sliding(3*minute, minute), Mode: FeedbackExploit}
	exec.Drive(s,
		exec.Tuples(0,
			traffic(2, 1, 10*minute+1, 50), // windows 8, 9, 10
			traffic(1, 1, 10*minute+2, 50)),
		exec.Feedback(0, core.NewDemanded(punct.AllWild(3))),
		outAt(&got))
	var got2 [][2]int64
	for _, tp := range got {
		got2 = append(got2, [2]int64{tp.At(1).I / minute, tp.At(0).AsInt()})
	}
	want := [][2]int64{{8, 2}, {8, 1}, {9, 2}, {9, 1}, {10, 2}, {10, 1}}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("partials over sliding windows left as (window, segment) %v, want %v", got2, want)
	}
}

// TestAggregateSumValueBoundKeepsState: SUM is not monotone-up (§3.5), so
// upward-closed value feedback guards its output and purges nothing.
func TestAggregateSumValueBoundKeepsState(t *testing.T) {
	a := &Aggregate{
		In: trafficSchema, Kind: core.AggSum, TsAttr: 2, ValAttr: 3,
		GroupBy: []int{0}, Window: window.Tumbling(minute),
		Mode: FeedbackExploit,
	}
	fb := core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(100))))
	exec.Drive(a, exec.Tuples(0, traffic(1, 1, 10*1_000_000, 150)), exec.Feedback(0, fb))
	if a.Stats().Purged != 0 {
		t.Fatal("SUM must not purge on ≥ feedback")
	}
}

// TestAggregateDemandedContract verifies the demanded-punctuation
// correctness notion (core.CheckDemanded): exact results all appear, and
// extras are confined to the demanded subset.
func TestAggregateDemandedContract(t *testing.T) {
	fb := core.NewDemanded(punct.OnAttr(3, 0, punct.Eq(stream.Int(1))))
	input := []stream.Tuple{
		traffic(1, 1, 10*1_000_000, 50),
		traffic(2, 1, 15*1_000_000, 60),
		traffic(1, 2, 20*1_000_000, 70),
	}
	run := func(demand bool) []stream.Tuple {
		a := minuteAvg(FeedbackExploit, false)
		var script []exec.Script
		for i, tp := range input {
			script = append(script, exec.Tuples(0, tp))
			if demand && i == 1 {
				script = append(script, exec.Feedback(0, fb))
			}
		}
		return exec.Drive(a, append(script, exec.Punct(0, tsPunct(minute-1)), exec.EOS(0))...).Out[0].Tuples()
	}
	ref := run(false)
	act := run(true)
	rep := core.CheckDemanded(ref, act, fb)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Partials != 1 {
		t.Errorf("expected exactly one licensed partial, got %d", rep.Partials)
	}
}

func TestAggregateFeedbackExpiresWithPunctuation(t *testing.T) {
	a := minuteAvg(FeedbackExploit, false)
	var installed, expired int
	exec.Drive(a,
		// Window-bound feedback for the first minute.
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(0))))),
		exec.Call(func(*exec.Trace) { installed = a.guardsOut.Active() }),
		// Punctuation past the first window expires it.
		exec.Punct(0, tsPunct(minute-1)),
		exec.Call(func(*exec.Trace) { expired = a.guardsOut.Active() }))
	if installed != 1 {
		t.Fatal("guard installed")
	}
	if expired != 0 {
		t.Error("output guard must expire when wstart punctuation covers it")
	}
}

// TestAggregateDefinition1Property: random streams, random group feedback,
// all three modes satisfy Definition 1 relative to the ignore-mode run.
func TestAggregateDefinition1Property(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		var input []stream.Tuple
		n := 20 + r.Intn(60)
		for i := 0; i < n; i++ {
			input = append(input, traffic(
				r.Int63n(4), r.Int63n(3),
				r.Int63n(5*minute), 20+float64(r.Intn(50)),
			))
		}
		seg := r.Int63n(4)
		fb := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(seg))))
		fbAt := r.Intn(n)
		run := func(mode FeedbackMode) []stream.Tuple {
			a := minuteAvg(mode, false)
			var script []exec.Script
			for i, tp := range input {
				if i == fbAt {
					script = append(script, exec.Feedback(0, fb))
				}
				script = append(script, exec.Tuples(0, tp))
			}
			tr := exec.Drive(a, append(script, exec.Punct(0, tsPunct(2*minute)), exec.EOS(0))...)
			if tr.Err != nil {
				t.Fatal(tr.Err)
			}
			return tr.Out[0].Tuples()
		}
		ref := run(FeedbackIgnore)
		for _, mode := range []FeedbackMode{FeedbackGuardOutput, FeedbackExploit} {
			rep := core.CheckExploitation(ref, run(mode), fb)
			if err := rep.Err(); err != nil {
				t.Fatalf("trial %d mode %v: %v", trial, mode, err)
			}
		}
	}
}

// TestAggregateRejectsUnexpectedInput pins the mis-wired-plan behaviour:
// a tuple, punctuation, or EOS on any input other than 0 is a loud error
// instead of silent mis-attribution.
func TestAggregateRejectsUnexpectedInput(t *testing.T) {
	a := minuteAvg(FeedbackIgnore, false)
	// The guard refuses before it touches the context.
	if err := a.ProcessTuple(1, traffic(1, 1, 10, 50), nil); err == nil {
		t.Fatal("tuple on input 1 must error")
	}
	if err := a.ProcessPunct(2, tsPunct(minute), nil); err == nil {
		t.Fatal("punctuation on input 2 must error")
	}
	if err := a.ProcessEOS(-1, nil); err == nil {
		t.Fatal("EOS on input -1 must error")
	}
}
