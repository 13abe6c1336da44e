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
	got := exec.Drive(p,
		exec.Tuples(0, traffic(1, 1, 1000, 50)), // sets hw=1000
		exec.Tuples(1, traffic(1, 2, 950, 55)),  // within tolerance: passes
		exec.Tuples(1, traffic(1, 3, 850, 60)),  // 150 behind: dropped
	).Out[0].Tuples()
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
	tr := exec.Drive(p, exec.Tuples(0, traffic(1, 1, 1000, 50)),
		exec.Tuples(1, traffic(1, 2, 10, 55))) // very late but tolerance disabled
	if len(tr.Out[0].Tuples()) != 2 {
		t.Error("zero tolerance must never drop")
	}
}

func TestPaceProducesAssumedFeedback(t *testing.T) {
	p := &Pace{
		Schema: trafficSchema, K: 2, TsAttr: 2,
		Tolerance: 100, FeedbackEnabled: true, FeedbackMinAdvance: 1,
		FeedbackSlack: -1, // promise exactly the drop bound
	}
	tr := exec.Drive(p, exec.Tuples(0, traffic(1, 1, 1000, 50)),
		exec.Tuples(1, traffic(1, 2, 800, 55))) // late → feedback
	if p.FeedbackSent() != 1 {
		t.Fatalf("feedback sent = %d", p.FeedbackSent())
	}
	for input := 0; input < 2; input++ {
		fb := tr.Sent[input]
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
	exec.Drive(p,
		exec.Tuples(0, traffic(1, 1, 1000, 50)),
		exec.Tuples(1, traffic(1, 2, 800, 55)), // feedback at cutoff 900
		exec.Tuples(0, traffic(1, 1, 1010, 50)),
		exec.Tuples(1, traffic(1, 2, 805, 55)), // cutoff 910 < 900+50: suppressed
		exec.Tuples(0, traffic(1, 1, 1100, 50)),
		exec.Tuples(1, traffic(1, 2, 810, 55))) // cutoff 1000 ≥ 950: emitted
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
	// The promise: ¬[ts < 900] once the tuple at 800 arrives.
	const cutoff = 900
	var before, inside int
	tr := exec.Drive(p,
		exec.Tuples(0, traffic(1, 1, 1000, 50)),
		exec.Tuples(1, traffic(1, 2, 800, 55)),
		exec.Call(func(tr *exec.Trace) { before = len(tr.Out[0].Tuples()) }),
		exec.Tuples(1, traffic(1, 3, cutoff-1, 60)), // inside the promised subset
		exec.Call(func(tr *exec.Trace) { inside = len(tr.Out[0].Tuples()) - before }),
		exec.Tuples(1, traffic(1, 4, cutoff, 61))) // at the cutoff: NOT promised
	if got := tr.Sent[0][0].Pattern.Pred(2).Val.Micros(); got != cutoff {
		t.Fatalf("promised ¬[ts < %d], want %d", got, cutoff)
	}
	if inside != 0 {
		t.Error("a tuple inside the promised subset must be dropped")
	}
	if len(tr.Out[0].Tuples())-before != 1 {
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
	var before int
	tr := exec.Drive(p,
		exec.Tuples(0, traffic(1, 1, 1000, 50)),
		exec.Tuples(1, traffic(1, 2, 800, 55)),
		exec.Call(func(tr *exec.Trace) { before = len(tr.Out[0].Tuples()) }),
		exec.Tuples(1, traffic(1, 3, 920, 60)))
	fb := tr.Sent[0]
	if len(fb) != 1 {
		t.Fatal("expected feedback")
	}
	if got := fb[0].Pattern.Pred(2).Val.Micros(); got != 950 {
		t.Errorf("cutoff = %d, want hw−Tolerance+Tolerance/2 = 950", got)
	}
	// Straggler inside the promised subset but within tolerance still
	// passes (the promise is a hint; PACE's own policy is the bound).
	if len(tr.Out[0].Tuples())-before != 1 {
		t.Error("straggler within tolerance must pass")
	}
}

func TestPrioritizePromotesDesiredSubset(t *testing.T) {
	p := &Prioritize{Schema: trafficSchema, BufferCap: 100, Mode: FeedbackExploit}
	var buffered, promoted, bypassed []stream.Tuple
	tr := exec.Drive(p,
		// Buffer some tuples.
		exec.Tuples(0, traffic(1, 1, 10, 50), traffic(2, 1, 20, 55), traffic(3, 1, 30, 60)),
		outAt(&buffered),
		// Desired feedback for segment 2: the buffered match jumps the queue.
		exec.Feedback(0, core.NewDesired(punct.OnAttr(4, 0, punct.Eq(stream.Int(2))))),
		outAt(&promoted),
		// New arrivals in the desired subset bypass the buffer.
		exec.Tuples(0, traffic(2, 2, 40, 52)),
		outAt(&bypassed),
		// Flush on punctuation: everything else must appear before the punct.
		exec.Punct(0, tsPunct(100)))
	if len(buffered) != 0 {
		t.Fatal("tuples should be buffered")
	}
	if got := promoted; len(got) != 1 || got[0].At(0).AsInt() != 2 {
		t.Fatalf("promotion: %v", got)
	}
	if got := bypassed; len(got) != 2 || got[1].At(0).AsInt() != 2 {
		t.Fatalf("bypass: %v", got)
	}
	items := tr.Out[0].Items()
	if items[len(items)-1].Kind != queue.ItemPunct {
		t.Fatal("punctuation must come after the flushed backlog")
	}
	tuples := tr.Out[0].Tuples()
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
	got := exec.Drive(p, exec.Tuples(0, traffic(1, 1, 10, 50), traffic(2, 1, 20, 55)),
		exec.Feedback(0, assumedOnSegment(1)), exec.EOS(0)).Out[0].Tuples()
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
	var got []stream.Tuple
	exec.Drive(p, exec.Tuples(0, traffic(1, 1, 10, 50), traffic(2, 1, 20, 55), traffic(3, 1, 30, 60)), outAt(&got))
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
		return exec.Drive(p, exec.Feedback(0, fb), exec.Tuples(0, input...), exec.EOS(0)).Out[0].Tuples()
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
	got := exec.Drive(p, exec.Feedback(0, core.NewDesired(punct.OnAttr(4, 0, punct.Eq(stream.Int(2))))),
		exec.Tuples(0, traffic(1, 1, 10, 50), traffic(2, 1, 20, 55)), exec.EOS(0)).Out[0].Tuples()
	if len(got) != 2 || got[0].At(0).AsInt() != 1 {
		t.Fatalf("ignore mode must stay FIFO: %v", got)
	}
}
