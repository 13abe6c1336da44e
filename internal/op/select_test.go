package op

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
)

var trafficSchema = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("detector", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

func traffic(seg, det, tsUS int64, speed float64) stream.Tuple {
	return stream.NewTuple(stream.Int(seg), stream.Int(det), stream.TimeMicros(tsUS), stream.Float(speed))
}

func trafficNull(seg, det, tsUS int64) stream.Tuple {
	return stream.NewTuple(stream.Int(seg), stream.Int(det), stream.TimeMicros(tsUS), stream.Null)
}

func assumedOnSegment(seg int64) core.Feedback {
	return core.NewAssumed(punct.OnAttr(4, 0, punct.Eq(stream.Int(seg))))
}

func tsPunct(us int64) punct.Embedded {
	return punct.NewEmbedded(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(us))))
}

func TestSelectFilters(t *testing.T) {
	s := &Select{Schema: trafficSchema, Cond: func(t stream.Tuple) bool {
		return !t.At(3).IsNull()
	}}
	tr := exec.Drive(s, exec.Tuples(0, traffic(1, 1, 10, 50), trafficNull(1, 2, 20), traffic(2, 1, 30, 60)))
	if got := tr.Out[0].Tuples(); len(got) != 2 {
		t.Fatalf("got %d tuples", len(got))
	}
	in, out, _ := s.Stats()
	if in != 3 || out != 2 {
		t.Errorf("stats: in=%d out=%d", in, out)
	}
}

func TestSelectFeedbackAddsToCondition(t *testing.T) {
	// §4.3: "assumed punctuation can simply be added to its select
	// condition".
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit}
	tr := exec.Drive(s, exec.Feedback(0, assumedOnSegment(3)), exec.Tuples(0, traffic(3, 1, 10, 50), traffic(4, 1, 20, 60)))
	got := tr.Out[0].Tuples()
	if len(got) != 1 || got[0].At(0).AsInt() != 4 {
		t.Fatalf("segment 3 must be suppressed: %v", got)
	}
	_, _, suppressed := s.Stats()
	if suppressed != 1 {
		t.Errorf("suppressed = %d", suppressed)
	}
	resp := s.Trace()
	if len(resp) != 1 || !resp[0].Did(core.ActGuardInput) {
		t.Errorf("response trace: %+v", resp)
	}
}

func TestSelectIgnoreModeIsNullResponse(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackIgnore}
	tr := exec.Drive(s, exec.Feedback(0, assumedOnSegment(3)), exec.Tuples(0, traffic(3, 1, 10, 50)))
	if len(tr.Out[0].Tuples()) != 1 {
		t.Error("feedback-unaware select must pass everything")
	}
}

func TestSelectPropagatesUpstream(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit, Propagate: true}
	f := assumedOnSegment(5)
	sent := exec.Drive(s, exec.Feedback(0, f)).Sent[0]
	if len(sent) != 1 || !sent[0].Pattern.Equal(f.Pattern) || sent[0].Hops != 1 {
		t.Fatalf("propagation: %+v", sent)
	}
}

func TestSelectPunctPassThroughAndExpiry(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit}
	var active int
	tr := exec.Drive(s, exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(100))))),
		// Guarded tuple dropped.
		exec.Tuples(0, traffic(1, 1, 50, 40)),
		// Punctuation covering the guard expires it and passes through.
		exec.Punct(0, tsPunct(100)),
		exec.Call(func(*exec.Trace) { active = s.guards.Active() }))
	if len(tr.Out[0].Tuples()) != 0 {
		t.Fatal("tuple under feedback must be dropped")
	}
	if len(puncts(tr.Out[0])) != 1 {
		t.Fatal("punctuation must pass through select")
	}
	if active != 0 {
		t.Error("guard must expire once covered (§4.4)")
	}
}

func TestSelectDefinition1(t *testing.T) {
	// Run the same input with and without feedback; verify Def. 1.
	input := []stream.Tuple{
		traffic(1, 1, 10, 50), traffic(2, 1, 20, 55), traffic(3, 1, 30, 60),
		traffic(1, 2, 40, 45), traffic(2, 2, 50, 50),
	}
	run := func(mode FeedbackMode) []stream.Tuple {
		s := &Select{Schema: trafficSchema, Mode: mode}
		return exec.Drive(s, exec.Feedback(0, assumedOnSegment(2)), exec.Tuples(0, input...)).Out[0].Tuples()
	}
	ref := run(FeedbackIgnore)
	actual := run(FeedbackExploit)
	rep := core.CheckExploitation(ref, actual, assumedOnSegment(2))
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", rep.Suppressed)
	}
}

func TestProjectBasics(t *testing.T) {
	p := &Project{In: trafficSchema, Keep: []string{"segment", "speed"}}
	got := exec.Drive(p, exec.Tuples(0, traffic(3, 1, 10, 52))).Out[0].Tuples()
	if len(got) != 1 || got[0].Arity() != 2 ||
		got[0].At(0).AsInt() != 3 || got[0].At(1).AsFloat() != 52 {
		t.Fatalf("projection: %v", got)
	}
}

func TestProjectPunctRelayRules(t *testing.T) {
	p := &Project{In: trafficSchema, Keep: []string{"segment", "speed"}}
	var dropped []punct.Embedded
	tr := exec.Drive(p,
		// Punctuation on a dropped attribute (ts) must be consumed.
		exec.Punct(0, tsPunct(100)),
		exec.Call(func(tr *exec.Trace) { dropped = puncts(tr.Out[0]) }),
		// Punctuation on a kept attribute is projected.
		exec.Punct(0, punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(7))))))
	if len(dropped) != 0 {
		t.Fatal("punctuation on dropped attribute must not be relayed")
	}
	ps := puncts(tr.Out[0])
	if len(ps) != 1 {
		t.Fatal("punctuation on kept attribute must be relayed")
	}
	if got := ps[0].Pattern; got.Arity() != 2 || got.Pred(0).Op != punct.EQ {
		t.Errorf("projected punct: %v", got)
	}
}

func TestProjectFeedbackPropagation(t *testing.T) {
	p := &Project{In: trafficSchema, Keep: []string{"segment", "speed"}, Mode: FeedbackExploit, Propagate: true}
	f := core.NewAssumed(punct.OnAttr(2, 0, punct.Eq(stream.Int(3))))
	tr := exec.Drive(p, exec.Feedback(0, f),
		// Guarded after feedback.
		exec.Tuples(0, traffic(3, 1, 10, 52)))
	sent := tr.Sent[0]
	if len(sent) != 1 {
		t.Fatal("project must propagate")
	}
	if got := sent[0].Pattern; got.Arity() != 4 || got.Pred(0).Op != punct.EQ || !got.Pred(2).IsWild() {
		t.Errorf("mapped pattern: %v", got)
	}
	if len(tr.Out[0].Tuples()) != 0 {
		t.Error("guarded projection must suppress")
	}
}

func TestDuplicateRequiresUnanimity(t *testing.T) {
	d := &Duplicate{Schema: trafficSchema, N: 2, Mode: FeedbackExploit, Propagate: true}
	f := assumedOnSegment(3)
	var first [3]int
	tr := exec.Drive(d,
		// Only output 0 asserts: must NOT suppress (outputs stay identical).
		exec.Feedback(0, f),
		exec.Tuples(0, traffic(3, 1, 10, 50)),
		exec.Call(func(tr *exec.Trace) {
			first = [3]int{len(tr.Out[0].Tuples()), len(tr.Out[1].Tuples()), len(tr.Sent[0])}
		}),
		// Output 1 asserts the same subset: now exploit and propagate.
		exec.Feedback(1, f),
		exec.Tuples(0, traffic(3, 2, 20, 55)))
	if first[0] != 1 || first[1] != 1 {
		t.Fatal("single-consumer feedback must not suppress a DUPLICATE")
	}
	if first[2] != 0 {
		t.Fatal("must not propagate before unanimity")
	}
	if len(tr.Out[0].Tuples()) != 1 || len(tr.Out[1].Tuples()) != 1 {
		t.Fatal("unanimous feedback must suppress on both outputs")
	}
	if len(tr.Sent[0]) != 1 {
		t.Fatal("unanimous feedback must propagate upstream")
	}
	if d.suppressed != 1 {
		t.Errorf("suppressed = %d", d.suppressed)
	}
}

func TestDuplicateFanoutAndPunct(t *testing.T) {
	d := &Duplicate{Schema: trafficSchema, N: 3}
	tr := exec.Drive(d, exec.Tuples(0, traffic(1, 1, 10, 50)), exec.Punct(0, tsPunct(10)))
	for port, out := range tr.Out {
		if len(out.Tuples()) != 1 || len(puncts(out)) != 1 {
			t.Errorf("port %d: %d tuples %d puncts", port, len(out.Tuples()), len(puncts(out)))
		}
	}
}
