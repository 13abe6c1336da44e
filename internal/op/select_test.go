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
	h := exec.NewHarness(s)
	h.Tuples(traffic(1, 1, 10, 50), trafficNull(1, 2, 20), traffic(2, 1, 30, 60))
	if got := h.OutTuples(0); len(got) != 2 {
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
	h := exec.NewHarness(s)
	h.Feedback(0, assumedOnSegment(3))
	h.Tuples(traffic(3, 1, 10, 50), traffic(4, 1, 20, 60))
	got := h.OutTuples(0)
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
	h := exec.NewHarness(s)
	h.Feedback(0, assumedOnSegment(3))
	h.Tuples(traffic(3, 1, 10, 50))
	if len(h.OutTuples(0)) != 1 {
		t.Error("feedback-unaware select must pass everything")
	}
}

func TestSelectPropagatesUpstream(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit, Propagate: true}
	h := exec.NewHarness(s)
	f := assumedOnSegment(5)
	h.Feedback(0, f)
	sent := h.SentFeedback(0)
	if len(sent) != 1 || !sent[0].Pattern.Equal(f.Pattern) || sent[0].Hops != 1 {
		t.Fatalf("propagation: %+v", sent)
	}
}

func TestSelectPunctPassThroughAndExpiry(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit}
	h := exec.NewHarness(s)
	h.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(100)))))
	// Guarded tuple dropped.
	h.Tuple(0, traffic(1, 1, 50, 40))
	if len(h.OutTuples(0)) != 0 {
		t.Fatal("tuple under feedback must be dropped")
	}
	// Punctuation covering the guard expires it and passes through.
	h.Punct(0, tsPunct(100))
	if len(h.OutPuncts(0)) != 1 {
		t.Fatal("punctuation must pass through select")
	}
	if s.guards.Active() != 0 {
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
		h := exec.NewHarness(s)
		h.Feedback(0, assumedOnSegment(2))
		h.Tuples(input...)
		return h.OutTuples(0)
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
	h := exec.NewHarness(p)
	h.Tuple(0, traffic(3, 1, 10, 52))
	got := h.OutTuples(0)
	if len(got) != 1 || got[0].Arity() != 2 ||
		got[0].At(0).AsInt() != 3 || got[0].At(1).AsFloat() != 52 {
		t.Fatalf("projection: %v", got)
	}
}

func TestProjectPunctRelayRules(t *testing.T) {
	p := &Project{In: trafficSchema, Keep: []string{"segment", "speed"}}
	h := exec.NewHarness(p)
	// Punctuation on a dropped attribute (ts) must be consumed.
	h.Punct(0, tsPunct(100))
	if len(h.OutPuncts(0)) != 0 {
		t.Fatal("punctuation on dropped attribute must not be relayed")
	}
	// Punctuation on a kept attribute is projected.
	h.Punct(0, punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(7)))))
	ps := h.OutPuncts(0)
	if len(ps) != 1 {
		t.Fatal("punctuation on kept attribute must be relayed")
	}
	if got := ps[0].Pattern; got.Arity() != 2 || got.Pred(0).Op != punct.EQ {
		t.Errorf("projected punct: %v", got)
	}
}

func TestProjectFeedbackPropagation(t *testing.T) {
	p := &Project{In: trafficSchema, Keep: []string{"segment", "speed"}, Mode: FeedbackExploit, Propagate: true}
	h := exec.NewHarness(p)
	f := core.NewAssumed(punct.OnAttr(2, 0, punct.Eq(stream.Int(3))))
	h.Feedback(0, f)
	sent := h.SentFeedback(0)
	if len(sent) != 1 {
		t.Fatal("project must propagate")
	}
	if got := sent[0].Pattern; got.Arity() != 4 || got.Pred(0).Op != punct.EQ || !got.Pred(2).IsWild() {
		t.Errorf("mapped pattern: %v", got)
	}
	// Guarded after feedback.
	h.Tuple(0, traffic(3, 1, 10, 52))
	if len(h.OutTuples(0)) != 0 {
		t.Error("guarded projection must suppress")
	}
}

func TestDuplicateRequiresUnanimity(t *testing.T) {
	d := &Duplicate{Schema: trafficSchema, N: 2, Mode: FeedbackExploit, Propagate: true}
	h := exec.NewHarness(d)
	f := assumedOnSegment(3)
	// Only output 0 asserts: must NOT suppress (outputs stay identical).
	h.Feedback(0, f)
	h.Tuple(0, traffic(3, 1, 10, 50))
	if len(h.OutTuples(0)) != 1 || len(h.OutTuples(1)) != 1 {
		t.Fatal("single-consumer feedback must not suppress a DUPLICATE")
	}
	if len(h.SentFeedback(0)) != 0 {
		t.Fatal("must not propagate before unanimity")
	}
	// Output 1 asserts the same subset: now exploit and propagate.
	h.Feedback(1, f)
	h.Tuple(0, traffic(3, 2, 20, 55))
	if len(h.OutTuples(0)) != 1 || len(h.OutTuples(1)) != 1 {
		t.Fatal("unanimous feedback must suppress on both outputs")
	}
	if len(h.SentFeedback(0)) != 1 {
		t.Fatal("unanimous feedback must propagate upstream")
	}
	_, _, suppressed := d.Stats()
	if suppressed != 1 {
		t.Errorf("suppressed = %d", suppressed)
	}
}

func TestDuplicateFanoutAndPunct(t *testing.T) {
	d := &Duplicate{Schema: trafficSchema, N: 3}
	h := exec.NewHarness(d)
	h.Tuple(0, traffic(1, 1, 10, 50))
	h.Punct(0, tsPunct(10))
	for port := 0; port < 3; port++ {
		if len(h.OutTuples(port)) != 1 || len(h.OutPuncts(port)) != 1 {
			t.Errorf("port %d: %d tuples %d puncts", port, len(h.OutTuples(port)), len(h.OutPuncts(port)))
		}
	}
}
