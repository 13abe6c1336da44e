package op

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// Example 2 (§2): with sliding windows, "avoiding the processing of these
// windows by placing a filter at the bottom of the plan to filter out the
// tuples that belong to w3 and w4 is incorrect: those tuples can be part
// of other windows. ... the aggregate can avoid working on the unnecessary
// windows."
//
// These tests pin down both halves of the claim on a slide-by-20 range-60
// window (each tuple belongs to 3 windows):
//
//  1. the aggregate suppresses exactly the unwanted windows while tuples
//     shared with live windows keep contributing to those;
//  2. propagation refuses to produce an input-side filter when no input
//     subset maps exactly onto the window subset (the "bottom filter is
//     incorrect" half).
func TestExample2SlidingWindowFeedback(t *testing.T) {
	a := &Aggregate{
		OpName: "count", In: trafficSchema, Kind: core.AggCount,
		TsAttr: 2, ValAttr: -1, GroupBy: nil,
		Window: window.Sliding(60, 20),
		Mode:   FeedbackExploit, Propagate: true,
	}
	tr := exec.Drive(a,
		// Feedback: windows starting in [20,40] (windows w1 and w2) are not
		// required. Output schema is (wstart, value): wstart at 0.
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(2, 0,
			punct.Range(stream.TimeMicros(20), stream.TimeMicros(40))))),
		// ts=70 belongs to w1,w2,w3 (starts 20,40,60): must still count in
		// w3. ts=30 belongs to w0,w1 (clipped): must still count in w0.
		exec.Tuples(0, traffic(1, 1, 70, 50), traffic(1, 1, 30, 50)),
		exec.EOS(0))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}

	// No safe propagation may exist: every tuple in w1 or w2 also
	// belongs to some window outside [20,40].
	if sent := tr.Sent[0]; len(sent) != 0 {
		t.Fatalf("a bottom-of-plan filter is incorrect here, yet feedback propagated: %v", sent)
	}

	got := map[int64]float64{}
	for _, tp := range tr.Out[0].Tuples() {
		got[tp.At(0).Micros()] = tp.At(1).AsFloat()
	}
	if got[20] != 0 || got[40] != 0 {
		t.Errorf("suppressed windows leaked: %v", got)
	}
	if got[0] != 1 {
		t.Errorf("window w0 must keep counting ts=30: %v", got)
	}
	if got[60] != 1 {
		t.Errorf("window w3 must keep counting ts=70: %v", got)
	}
	st := a.Stats()
	if st.InSuppressed == 0 {
		t.Error("per-extent suppression must have occurred")
	}
}

// TestExample2TumblingPropagates is the contrast: with tumbling windows a
// contiguous window range maps exactly onto a timestamp range, so the
// translation to an input-side guard exists and is exact.
func TestExample2TumblingPropagates(t *testing.T) {
	a := &Aggregate{
		OpName: "count", In: trafficSchema, Kind: core.AggCount,
		TsAttr: 2, ValAttr: -1, GroupBy: nil,
		Window: window.Tumbling(60),
		Mode:   FeedbackExploit, Propagate: true,
	}
	tr := exec.Drive(a, exec.Feedback(0, core.NewAssumed(punct.OnAttr(2, 0,
		punct.Range(stream.TimeMicros(60), stream.TimeMicros(120))))), // w1, w2
		// Exactness: a tuple at 59 or 180 survives, anything in [60,179] is
		// suppressed at input.
		exec.Tuples(0, traffic(1, 1, 59, 50), traffic(1, 1, 60, 50), traffic(1, 1, 179, 50), traffic(1, 1, 180, 50)))
	sent := tr.Sent[0]
	if len(sent) != 1 {
		t.Fatalf("tumbling window range must propagate: %v", sent)
	}
	pr := sent[0].Pattern.Pred(2)
	if pr.Op != punct.Between || pr.Val.Micros() != 60 || pr.Hi.Micros() != 179 {
		t.Errorf("translated range: %v (want ts ∈ [60, 179])", sent[0].Pattern)
	}
	if st := a.Stats(); st.InSuppressed != 2 || st.Folded != 2 {
		t.Errorf("suppression accounting: %+v", st)
	}
}
