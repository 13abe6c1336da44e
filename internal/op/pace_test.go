package op

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

func TestPaceDropsLateTuples(t *testing.T) {
	p := &Pace{Schema: trafficSchema, K: 2, TsAttr: 2, Tolerance: 100}
	h := exec.NewHarness(p)
	h.Tuple(0, traffic(1, 1, 1000, 50)) // sets hw=1000
	h.Tuple(1, traffic(1, 2, 950, 55))  // within tolerance: passes
	h.Tuple(1, traffic(1, 3, 850, 60))  // 150 behind: dropped
	got := h.OutTuples(0)
	if len(got) != 2 {
		t.Fatalf("got %d tuples, want 2", len(got))
	}
	st := p.InputStats()
	if st[0].Passed != 1 || st[1].Passed != 1 || st[1].Dropped != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPaceZeroToleranceIsPlainUnion(t *testing.T) {
	p := &Pace{Schema: trafficSchema, K: 2, TsAttr: 2, Tolerance: 0}
	h := exec.NewHarness(p)
	h.Tuple(0, traffic(1, 1, 1000, 50))
	h.Tuple(1, traffic(1, 2, 10, 55)) // very late but tolerance disabled
	if len(h.OutTuples(0)) != 2 {
		t.Error("zero tolerance must never drop")
	}
}

func TestPaceProducesAssumedFeedback(t *testing.T) {
	p := &Pace{
		Schema: trafficSchema, K: 2, TsAttr: 2,
		Tolerance: 100, FeedbackEnabled: true, FeedbackMinAdvance: 1,
		FeedbackSlack: -1, // promise exactly the drop bound
	}
	h := exec.NewHarness(p)
	h.Tuple(0, traffic(1, 1, 1000, 50))
	h.Tuple(1, traffic(1, 2, 800, 55)) // late → feedback
	if p.FeedbackSent() != 1 {
		t.Fatalf("feedback sent = %d", p.FeedbackSent())
	}
	for input := 0; input < 2; input++ {
		fb := h.SentFeedback(input)
		if len(fb) != 1 {
			t.Fatalf("input %d: %d feedback messages", input, len(fb))
		}
		f := fb[0]
		if f.Intent != core.Assumed {
			t.Error("PACE must send assumed feedback")
		}
		pr := f.Pattern.Pred(2)
		if pr.Op != punct.LT || pr.Val.Micros() != 900 {
			t.Errorf("cutoff pattern: %v (want < hw−tolerance = 900)", f.Pattern)
		}
	}
}

func TestPaceFeedbackRateLimit(t *testing.T) {
	p := &Pace{
		Schema: trafficSchema, K: 2, TsAttr: 2,
		Tolerance: 100, FeedbackEnabled: true, FeedbackMinAdvance: 50,
	}
	h := exec.NewHarness(p)
	h.Tuple(0, traffic(1, 1, 1000, 50))
	h.Tuple(1, traffic(1, 2, 800, 55)) // feedback at cutoff 900
	h.Tuple(0, traffic(1, 1, 1010, 50))
	h.Tuple(1, traffic(1, 2, 805, 55)) // cutoff 910 < 900+50: suppressed
	h.Tuple(0, traffic(1, 1, 1100, 50))
	h.Tuple(1, traffic(1, 2, 810, 55)) // cutoff 1000 ≥ 950: emitted
	if p.FeedbackSent() != 2 {
		t.Errorf("feedback sent = %d, want 2 (rate limited)", p.FeedbackSent())
	}
}

func TestPaceFeedbackIsSelfConsistent(t *testing.T) {
	// Everything PACE promises to ignore (ts ≤ cutoff) it must actually
	// drop if it arrives later — the feedback is truthful.
	p := &Pace{
		Schema: trafficSchema, K: 2, TsAttr: 2,
		Tolerance: 100, FeedbackEnabled: true, FeedbackMinAdvance: 1,
		FeedbackSlack: -1,
	}
	h := exec.NewHarness(p)
	h.Tuple(0, traffic(1, 1, 1000, 50))
	h.Tuple(1, traffic(1, 2, 800, 55)) // feedback: ¬[ts < 900]
	cutoff := h.SentFeedback(0)[0].Pattern.Pred(2).Val.Micros()
	h.Reset()
	h.Tuple(1, traffic(1, 3, cutoff-1, 60)) // inside the promised subset
	if len(h.OutTuples(0)) != 0 {
		t.Error("a tuple inside the promised subset must be dropped")
	}
	h.Tuple(1, traffic(1, 4, cutoff, 61)) // at the cutoff: NOT promised
	if len(h.OutTuples(0)) != 1 {
		t.Error("a tuple at the cutoff is outside the promise and must pass")
	}
}

func TestPaceFeedbackSlackDefault(t *testing.T) {
	// Default slack = Tolerance/2: the promise is tighter than the drop
	// bound, giving upstream headroom for in-flight work.
	p := &Pace{
		Schema: trafficSchema, K: 2, TsAttr: 2,
		Tolerance: 100, FeedbackEnabled: true, FeedbackMinAdvance: 1,
	}
	h := exec.NewHarness(p)
	h.Tuple(0, traffic(1, 1, 1000, 50))
	h.Tuple(1, traffic(1, 2, 800, 55))
	fb := h.SentFeedback(0)
	if len(fb) != 1 {
		t.Fatal("expected feedback")
	}
	if got := fb[0].Pattern.Pred(2).Val.Micros(); got != 950 {
		t.Errorf("cutoff = %d, want hw−Tolerance+Tolerance/2 = 950", got)
	}
	// Straggler inside the promised subset but within tolerance still
	// passes (the promise is a hint; PACE's own policy is the bound).
	h.Reset()
	h.Tuple(1, traffic(1, 3, 920, 60))
	if len(h.OutTuples(0)) != 1 {
		t.Error("straggler within tolerance must pass")
	}
}

func TestPrioritizePromotesDesiredSubset(t *testing.T) {
	p := &Prioritize{Schema: trafficSchema, BufferCap: 100, Mode: FeedbackExploit}
	h := exec.NewHarness(p)
	// Buffer some tuples.
	h.Tuples(traffic(1, 1, 10, 50), traffic(2, 1, 20, 55), traffic(3, 1, 30, 60))
	if len(h.OutTuples(0)) != 0 {
		t.Fatal("tuples should be buffered")
	}
	// Desired feedback for segment 2: the buffered match jumps the queue.
	h.Feedback(0, core.NewDesired(punct.OnAttr(4, 0, punct.Eq(stream.Int(2)))))
	got := h.OutTuples(0)
	if len(got) != 1 || got[0].At(0).AsInt() != 2 {
		t.Fatalf("promotion: %v", got)
	}
	// New arrivals in the desired subset bypass the buffer.
	h.Tuple(0, traffic(2, 2, 40, 52))
	got = h.OutTuples(0)
	if len(got) != 2 || got[1].At(0).AsInt() != 2 {
		t.Fatalf("bypass: %v", got)
	}
	// Flush on punctuation: everything else must appear before the punct.
	h.Punct(0, tsPunct(100))
	items := h.Out(0)
	if items[len(items)-1].Kind != queue.ItemPunct {
		t.Fatal("punctuation must come after the flushed backlog")
	}
	tuples := h.OutTuples(0)
	if len(tuples) != 4 {
		t.Fatalf("after flush: %d tuples", len(tuples))
	}
	// Desired punctuation never changes the result SET, only order.
	seen := map[int64]int{}
	for _, tp := range tuples {
		seen[tp.At(0).AsInt()]++
	}
	if seen[1] != 1 || seen[2] != 2 || seen[3] != 1 {
		t.Errorf("result multiset changed: %v", seen)
	}
}

func TestPrioritizeAssumedDropsBacklog(t *testing.T) {
	p := &Prioritize{Schema: trafficSchema, BufferCap: 100, Mode: FeedbackExploit}
	h := exec.NewHarness(p)
	h.Tuples(traffic(1, 1, 10, 50), traffic(2, 1, 20, 55))
	h.Feedback(0, assumedOnSegment(1))
	h.EOS(0)
	got := h.OutTuples(0)
	if len(got) != 1 || got[0].At(0).AsInt() != 2 {
		t.Fatalf("assumed feedback must purge backlog: %v", got)
	}
	_, _, _, dropped := p.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
}

func TestPrioritizeBufferCapDrainsFIFO(t *testing.T) {
	p := &Prioritize{Schema: trafficSchema, BufferCap: 2, Mode: FeedbackExploit}
	h := exec.NewHarness(p)
	h.Tuples(traffic(1, 1, 10, 50), traffic(2, 1, 20, 55), traffic(3, 1, 30, 60))
	got := h.OutTuples(0)
	if len(got) != 1 || got[0].At(0).AsInt() != 1 {
		t.Fatalf("cap overflow must drain oldest first: %v", got)
	}
}

// TestPrioritizeDesiredContract verifies the §8 future-work notion
// implemented in core: desired exploitation keeps the multiset identical
// and improves the subset's mean production rank.
func TestPrioritizeDesiredContract(t *testing.T) {
	input := []stream.Tuple{
		traffic(1, 1, 10, 50), traffic(2, 1, 20, 55), traffic(1, 2, 30, 60),
		traffic(2, 2, 40, 52), traffic(1, 3, 50, 58), traffic(2, 3, 60, 54),
	}
	fb := core.NewDesired(punct.OnAttr(4, 0, punct.Eq(stream.Int(2))))
	run := func(mode FeedbackMode) []stream.Tuple {
		p := &Prioritize{Schema: trafficSchema, BufferCap: 100, Mode: mode}
		h := exec.NewHarness(p)
		h.Feedback(0, fb)
		h.Tuples(input...)
		h.EOS(0)
		return h.OutTuples(0)
	}
	ref := run(FeedbackIgnore)
	act := run(FeedbackExploit)
	rep := core.CheckDesired(ref, act, fb)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.SubsetCount == 0 || rep.MeanRankActual >= rep.MeanRankRef {
		t.Errorf("desired subset must be produced earlier: ref rank %.1f, actual %.1f",
			rep.MeanRankRef, rep.MeanRankActual)
	}
}

func TestPrioritizeIgnoreModeIsFIFO(t *testing.T) {
	p := &Prioritize{Schema: trafficSchema, BufferCap: 2, Mode: FeedbackIgnore}
	h := exec.NewHarness(p)
	h.Feedback(0, core.NewDesired(punct.OnAttr(4, 0, punct.Eq(stream.Int(2)))))
	h.Tuples(traffic(1, 1, 10, 50), traffic(2, 1, 20, 55))
	h.EOS(0)
	got := h.OutTuples(0)
	if len(got) != 2 || got[0].At(0).AsInt() != 1 {
		t.Fatalf("ignore mode must stay FIFO: %v", got)
	}
}

// TestPaceRejectsUnexpectedInput: the index guard over the K-input fan
// (mirrors the one PR 2 gave Aggregate and Join).
func TestPaceRejectsUnexpectedInput(t *testing.T) {
	p := &Pace{Schema: trafficSchema, K: 2, TsAttr: 2}
	h := exec.NewHarness(p)
	if err := p.ProcessTuple(2, traffic(1, 1, 10, 50), h); err == nil {
		t.Error("tuple on input 2 accepted (K=2)")
	}
	if err := p.ProcessPunct(5, tsPunct(10), h); err == nil {
		t.Error("punctuation on input 5 accepted")
	}
	if err := p.ProcessEOS(-1, h); err == nil {
		t.Error("EOS on input -1 accepted")
	}
	if err := p.ProcessTuple(1, traffic(1, 1, 10, 50), h); err != nil {
		t.Fatal(err)
	}
	if err := p.ProcessEOS(0, h); err != nil {
		t.Fatal(err)
	}
}
