package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// This file regenerates Tables 1 and 2: for each punctuation shape the
// paper characterizes, it asks a live operator for its response plan — the
// one its responder enacts — ENACTS it, and verifies Definition 1 by
// comparing against the feedback-unaware run.

// TableRow is one rendered characterization row.
type TableRow struct {
	Punctuation string
	Plan        core.ResponsePlan
	// Verified reports that enacting the plan on a live operator
	// satisfied Definition 1 on a probe stream.
	Verified bool
	Detail   string
}

// CountTable regenerates Table 1 on a live COUNT operator (output schema
// (g, wstart, a); the paper's (g, a) plus the windowing attribute).
func CountTable() []TableRow {
	two := stream.MustSchema(
		stream.F("g", stream.KindInt),
		stream.F("ts", stream.KindTime),
		stream.F("x", stream.KindFloat),
	)
	probeStream := []stream.Tuple{}
	for i := int64(0); i < 40; i++ {
		probeStream = append(probeStream, stream.NewTuple(
			stream.Int(i%4), stream.TimeMicros(i*1000), stream.Float(float64(i%7))))
	}
	outArity := 3 // (g, wstart, count)
	shapes := []struct {
		label string
		pat   punct.Pattern
	}{
		{"¬[g,*]", punct.OnAttr(outArity, 0, punct.Eq(stream.Int(2)))},
		{"¬[*,a]", punct.OnAttr(outArity, 2, punct.Eq(stream.Float(5)))},
		{"¬[*,≥a]", punct.OnAttr(outArity, 2, punct.Ge(stream.Float(5)))},
		{"¬[*,≤a]", punct.OnAttr(outArity, 2, punct.Le(stream.Float(5)))},
	}
	var rows []TableRow
	for _, sh := range shapes {
		mk := func(mode op.FeedbackMode) *op.Aggregate {
			return &op.Aggregate{
				OpName: "count", In: two, Kind: core.AggCount,
				TsAttr: 1, ValAttr: -1, GroupBy: []int{0},
				Window: window.Tumbling(20_000), Mode: mode,
			}
		}
		fb := core.NewAssumed(sh.pat)
		row := TableRow{Punctuation: sh.label, Plan: mk(op.FeedbackExploit).Characterize(0, fb)}
		ref := runAggProbe(mk(op.FeedbackIgnore), probeStream, fb)
		act := runAggProbe(mk(op.FeedbackExploit), probeStream, fb)
		rep := core.CheckExploitation(ref, act, fb)
		row.Verified = rep.OK()
		row.Detail = fmt.Sprintf("%d results suppressed of %d", rep.Suppressed, len(ref))
		rows = append(rows, row)
	}
	return rows
}

func runAggProbe(a *op.Aggregate, input []stream.Tuple, fb core.Feedback) []stream.Tuple {
	at := len(input) / 3
	return exec.Drive(a, exec.Tuples(0, input[:at]...), exec.Feedback(0, fb), exec.Tuples(0, input[at:]...)).Out[0].Tuples()
}

// JoinTable regenerates Table 2 on a live symmetric hash join with output
// partition (L, J, R).
func JoinTable() []TableRow {
	left := stream.MustSchema(stream.F("l", stream.KindInt), stream.F("j", stream.KindInt), stream.F("ts", stream.KindTime))
	right := stream.MustSchema(stream.F("j", stream.KindInt), stream.F("r", stream.KindInt), stream.F("ts", stream.KindTime))
	mk := func(mode op.FeedbackMode) *op.Join {
		return &op.Join{
			OpName: "join", Left: left, Right: right,
			LeftKeys: []int{1, 2}, RightKeys: []int{0, 2},
			LeftTs: 2, RightTs: 2, Mode: mode,
		}
	}
	// Output schema: (l, j, ts, r): L={0}, J={1,2}, R={3}.
	outArity := 4
	shapes := []struct {
		label string
		pat   punct.Pattern
	}{
		{"¬[*,j,*]", punct.OnAttr(outArity, 1, punct.Eq(stream.Int(2)))},
		{"¬[l,*,*]", punct.OnAttr(outArity, 0, punct.Eq(stream.Int(1)))},
		{"¬[*,*,r]", punct.OnAttr(outArity, 3, punct.Eq(stream.Int(3)))},
		{"¬[l,*,r]", punct.NewPattern(punct.Eq(stream.Int(1)), punct.Wild, punct.Wild, punct.Eq(stream.Int(3)))},
	}
	var rows []TableRow
	for _, sh := range shapes {
		fb := core.NewAssumed(sh.pat)
		row := TableRow{Punctuation: sh.label, Plan: mk(op.FeedbackExploit).Characterize(0, fb)}
		ref := runJoinProbe(mk(op.FeedbackIgnore), fb)
		act := runJoinProbe(mk(op.FeedbackExploit), fb)
		rep := core.CheckExploitation(ref, act, fb)
		row.Verified = rep.OK()
		row.Detail = fmt.Sprintf("%d results suppressed of %d", rep.Suppressed, len(ref))
		rows = append(rows, row)
	}
	return rows
}

func runJoinProbe(j *op.Join, fb core.Feedback) []stream.Tuple {
	var script []exec.Script
	for i := int64(0); i < 27; i++ {
		l, jj, ts := i/9, i/3%3, i%3
		if i == 9 {
			script = append(script, exec.Feedback(0, fb))
		}
		script = append(script,
			exec.Tuples(0, stream.NewTuple(stream.Int(l), stream.Int(jj), stream.TimeMicros(ts))),
			exec.Tuples(1, stream.NewTuple(stream.Int(jj), stream.Int(l+2), stream.TimeMicros(ts))))
	}
	return exec.Drive(j, script...).Out[0].Tuples()
}

// RenderTables writes both tables in the paper's layout.
func RenderTables(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — COUNT characterization (enacted and verified against Definition 1)")
	for _, r := range CountTable() {
		status := "VERIFIED"
		if !r.Verified {
			status = "VIOLATION"
		}
		fmt.Fprintf(w, "  %-10s %s\n             %s [%s: %s]\n", r.Punctuation, r.Plan.PlanString(), r.Plan.Explanation, status, r.Detail)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 2 — JOIN characterization (enacted and verified against Definition 1)")
	for _, r := range JoinTable() {
		status := "VERIFIED"
		if !r.Verified {
			status = "VIOLATION"
		}
		fmt.Fprintf(w, "  %-10s %s\n             %s [%s: %s]\n", r.Punctuation, r.Plan.PlanString(), r.Plan.Explanation, status, r.Detail)
	}
}
