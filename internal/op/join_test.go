package op

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// Probe-vehicle and fixed-sensor schemas from §3.5, simplified:
// probe(seg, ts, pspeed) ⋈ sensor(seg, ts, sspeed) on (seg, ts).
var (
	probeSchema  = stream.MustSchema(stream.F("seg", stream.KindInt), stream.F("ts", stream.KindTime), stream.F("pspeed", stream.KindFloat))
	sensorSchema = stream.MustSchema(stream.F("seg", stream.KindInt), stream.F("ts", stream.KindTime), stream.F("sspeed", stream.KindFloat))
)

func probe(seg, ts int64, v float64) stream.Tuple {
	return stream.NewTuple(stream.Int(seg), stream.TimeMicros(ts), stream.Float(v))
}

func sensor(seg, ts int64, v float64) stream.Tuple {
	return stream.NewTuple(stream.Int(seg), stream.TimeMicros(ts), stream.Float(v))
}

func newTestJoin(mode FeedbackMode, propagate bool) *Join {
	return &Join{
		OpName: "join", Left: probeSchema, Right: sensorSchema,
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
		LeftTs: 1, RightTs: 1,
		Mode: mode, Propagate: propagate,
	}
}

func leftPunct(us int64) punct.Embedded {
	return punct.NewEmbedded(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(us))))
}

func TestJoinOutputSchema(t *testing.T) {
	j := newTestJoin(FeedbackIgnore, false)
	out := j.OutSchemas()[0]
	// (seg, ts, pspeed, sspeed): join attrs once, right non-keys appended.
	if out.Arity() != 4 || out.Index("seg") != 0 || out.Index("sspeed") != 3 {
		t.Fatalf("output schema: %s", out)
	}
}

func TestJoinMatchesBothArrivalOrders(t *testing.T) {
	j := newTestJoin(FeedbackIgnore, false)
	got := exec.Drive(j,
		exec.Tuples(0, probe(1, 100, 45)),
		exec.Tuples(1, sensor(1, 100, 50)), // right probes left
		exec.Tuples(1, sensor(2, 100, 60)),
		exec.Tuples(0, probe(2, 100, 55)), // left probes right
	).Out[0].Tuples()
	if len(got) != 2 {
		t.Fatalf("joined: %v", got)
	}
	for _, tp := range got {
		if tp.Arity() != 4 {
			t.Errorf("arity: %v", tp)
		}
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	j := newTestJoin(FeedbackIgnore, false)
	j.Residual = func(l, r stream.Tuple) bool { return r.At(2).AsFloat() < 45 }
	tr := exec.Drive(j,
		exec.Tuples(0, probe(1, 100, 40)),
		exec.Tuples(1, sensor(1, 100, 44)), // congested: joins
		exec.Tuples(0, probe(2, 100, 40)),
		exec.Tuples(1, sensor(2, 100, 60))) // uncongested: filtered
	if got := tr.Out[0].Tuples(); len(got) != 1 || got[0].At(0).AsInt() != 1 {
		t.Fatalf("residual: %v", got)
	}
}

func TestJoinPunctuationPurgesState(t *testing.T) {
	j := newTestJoin(FeedbackIgnore, false)
	var st, st2 JoinStats
	var ps []punct.Embedded
	exec.Drive(j,
		exec.Tuples(0, probe(1, 100, 45)),
		exec.Tuples(1, sensor(2, 100, 50)),
		// Left punctuation ≤ 100: right entries ≤ 100 can never match.
		exec.Punct(0, leftPunct(100)),
		exec.Call(func(*exec.Trace) { st = j.Stats() }),
		exec.Punct(1, leftPunct(100)),
		exec.Call(func(tr *exec.Trace) { st2, ps = j.Stats(), puncts(tr.Out[0]) }))
	if st.RightEntries != 0 {
		t.Errorf("right entries after left punct: %d", st.RightEntries)
	}
	if st.LeftEntries != 1 {
		t.Errorf("left entries must survive: %d", st.LeftEntries)
	}
	if st2.LeftEntries != 0 {
		t.Error("left entries after right punct")
	}
	// Output punctuation after both inputs punctuated.
	if len(ps) != 1 || ps[0].Pattern.Pred(1).Val.Micros() != 100 {
		t.Errorf("output punctuation: %v", ps)
	}
}

func TestJoinLeftOuterEmitsOnPurge(t *testing.T) {
	j := newTestJoin(FeedbackIgnore, false)
	j.LeftOuter = true
	var got []stream.Tuple
	exec.Drive(j,
		exec.Tuples(0,
			probe(1, 100, 45), // will match
			probe(2, 100, 55), // will not match
		),
		exec.Tuples(1, sensor(1, 100, 50)),
		// Right punctuation proves segment 2 has no partner.
		exec.Punct(1, leftPunct(100)),
		outAt(&got))
	if len(got) != 2 {
		t.Fatalf("outer join output: %v", got)
	}
	var sawNull bool
	for _, tp := range got {
		if tp.At(3).IsNull() {
			sawNull = true
			if tp.At(0).AsInt() != 2 {
				t.Errorf("padded tuple: %v", tp)
			}
		}
	}
	if !sawNull {
		t.Fatal("unmatched left tuple must be emitted null-padded")
	}
	st := j.Stats()
	if st.OuterEmitted != 1 {
		t.Errorf("outerEmitted = %d", st.OuterEmitted)
	}
}

// TestJoinLeftOuterOrderDeterministic: unmatched left entries leave in the
// order they arrived — by right punctuation, and by the flush at right EOS —
// and identical runs emit identical sequences. (The tables were Go maps once,
// and the purge walked them in map-iteration order.)
func TestJoinLeftOuterOrderDeterministic(t *testing.T) {
	const keys = 32
	run := func(flush exec.Script) []stream.Tuple {
		j := newTestJoin(FeedbackIgnore, false)
		j.LeftOuter = true
		var script []exec.Script
		for i := int64(0); i < keys; i++ {
			script = append(script, exec.Tuples(0, probe(i*37%keys, 100, float64(i)))) // keys in no particular order; v is the arrival number
		}
		var got []stream.Tuple
		tr := exec.Drive(j, append(script, flush, outAt(&got))...)
		if tr.Err != nil {
			t.Fatal(tr.Err)
		}
		return got
	}
	for name, flush := range map[string]exec.Script{
		"punctuation": exec.Punct(1, leftPunct(100)),
		"EOS":         exec.EOS(1),
	} {
		first := run(flush)
		if len(first) != keys {
			t.Fatalf("%s: %d outer results, want %d", name, len(first), keys)
		}
		for i, tp := range first {
			if tp.At(2).AsFloat() != float64(i) || !tp.At(3).IsNull() {
				t.Fatalf("%s: result %d is %v, want the %dth left arrival null-padded", name, i, tp, i)
			}
		}
		for rep := 1; rep < 20; rep++ {
			for i, tp := range run(flush) {
				if !slices.EqualFunc(tp.Values, first[i].Values, stream.Value.Equal) {
					t.Fatalf("%s: run %d emitted %v at %d, the first run %v", name, rep, tp, i, first[i])
				}
			}
		}
	}
}

func TestJoinLeftOuterEOSFlush(t *testing.T) {
	j := newTestJoin(FeedbackIgnore, false)
	j.LeftOuter = true
	var got []stream.Tuple
	exec.Drive(j, exec.Tuples(0, probe(7, 100, 45)), exec.EOS(1), outAt(&got))
	if len(got) != 1 || !got[0].At(3).IsNull() {
		t.Fatalf("EOS must flush unmatched left tuples: %v", got)
	}
}

// TestJoinOutputIndependentOfInterleaving: the timestamps being a join-key
// pair, a join's output is a function of its two input streams, not of how
// the scheduler interleaves them. Each random script — per input, tuples in
// disorder above that input's punctuation, then its EOS, the left input the
// longer — plays all of the left input first, then strictly alternating;
// inner and LEFT OUTER joins emit equal multisets either way, and neither
// emits a tuple its own punctuation already covered. Alternating, the right
// input ends first: a left tuple after it can have no partner, and LEFT
// OUTER still emits it.
func TestJoinOutputIndependentOfInterleaving(t *testing.T) {
	joined := 0
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var inputs [2][]exec.Script
		for in, n := range []int{40, 25} {
			wm := int64(0)
			for range n {
				if r.Intn(5) == 0 {
					wm += r.Int63n(3)
					inputs[in] = append(inputs[in], exec.Punct(in, leftPunct(wm)))
					continue
				}
				inputs[in] = append(inputs[in], exec.Tuples(in, probe(r.Int63n(3), wm+1+r.Int63n(4), float64(r.Intn(100)))))
			}
			inputs[in] = append(inputs[in], exec.EOS(in))
		}
		leftFirst := slices.Concat(inputs[0], inputs[1])
		var alternating []exec.Script
		for i := range len(inputs[0]) {
			alternating = append(alternating, inputs[0][i])
			if i < len(inputs[1]) {
				alternating = append(alternating, inputs[1][i])
			}
		}
		for _, outer := range []bool{false, true} {
			var got [2][]string
			for k, script := range [][]exec.Script{leftFirst, alternating} {
				j := newTestJoin(FeedbackIgnore, false)
				j.LeftOuter = outer
				tr := exec.Drive(j, script...)
				if tr.Err != nil {
					t.Fatal(tr.Err)
				}
				at := fmt.Sprintf("seed %d outer=%v interleaving %d", seed, outer, k)
				keepsPromises(t, at, j.OutSchemas()[0].Arity(), tr.Out[0].Items())
				got[k] = tr.Out[0].Lines()
			}
			if !slices.Equal(got[0], got[1]) {
				t.Fatalf("seed %d outer=%v: left first emitted %v, alternating %v", seed, outer, got[0], got[1])
			}
			if !outer {
				joined += len(got[0])
			}
		}
	}
	if joined == 0 {
		t.Fatal("no script joined a pair: the check is vacuous")
	}
}

// TestJoinTable2Exploit verifies the enacted responses per Table 2 rows.
func TestJoinTable2Exploit(t *testing.T) {
	// Row 1: ¬[*,j,*] — here j = (seg): purge both tables, guard input,
	// propagate both ways.
	j := newTestJoin(FeedbackExploit, true)
	var st, guarded JoinStats
	tr := exec.Drive(j,
		exec.Tuples(0, probe(3, 100, 45)),
		exec.Tuples(1, sensor(3, 200, 50)), // different ts: no match, states live
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 0, punct.Eq(stream.Int(3))))),
		exec.Call(func(*exec.Trace) { st = j.Stats() }),
		// Guard: new tuples for seg 3 are suppressed.
		exec.Tuples(0, probe(3, 300, 40)),
		exec.Call(func(*exec.Trace) { guarded = j.Stats() }))
	if st.PurgedByFeedback != 2 {
		t.Errorf("purged = %d, want 2 (both tables)", st.PurgedByFeedback)
	}
	if len(tr.Sent[0]) != 1 || len(tr.Sent[1]) != 1 {
		t.Error("join-attribute feedback must propagate to both inputs")
	}
	if guarded.LeftEntries != 0 {
		t.Error("guarded left input must not build state")
	}

	// Row 4: ¬[l,*,r] — guard output only.
	j2 := newTestJoin(FeedbackExploit, true)
	cross := punct.NewPattern(punct.Wild, punct.Wild, punct.Eq(stream.Float(50)), punct.Eq(stream.Float(50)))
	var outside []stream.Tuple
	tr2 := exec.Drive(j2,
		exec.Feedback(0, core.NewAssumed(cross)),
		// <49, …, 50> must still be produced: only exact cross matches die.
		exec.Tuples(0, probe(1, 100, 49)),
		exec.Tuples(1, sensor(1, 100, 50)),
		outAt(&outside),
		exec.Tuples(0, probe(2, 100, 50)),
		exec.Tuples(1, sensor(2, 100, 50)))
	if len(tr2.Sent[0]) != 0 || len(tr2.Sent[1]) != 0 {
		t.Error("cross-side feedback must not propagate (¬[50,*,*,50] example)")
	}
	if got := outside; len(got) != 1 {
		t.Fatalf("tuple outside the subset must survive: %v", got)
	}
	if got := tr2.Out[0].Tuples(); len(got) != 1 {
		t.Fatal("tuple inside the subset must be suppressed at output")
	}
}

func TestJoinGuardOutputMode(t *testing.T) {
	j := newTestJoin(FeedbackGuardOutput, false)
	var st JoinStats
	tr := exec.Drive(j,
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 0, punct.Eq(stream.Int(3))))),
		exec.Tuples(0, probe(3, 100, 45)),
		exec.Tuples(1, sensor(3, 100, 50)),
		exec.Call(func(*exec.Trace) { st = j.Stats() }))
	if len(tr.Out[0].Tuples()) != 0 {
		t.Fatal("output must be guarded")
	}
	// State still builds in guard-output mode.
	if st.LeftEntries != 1 || st.RightEntries != 1 {
		t.Error("guard-output mode must not purge state")
	}
}

func TestThriftyJoinDetectsEmptyWindows(t *testing.T) {
	// §3.3 Adaptive: probe (left, input 0) windows 1-minute tumbling;
	// window 1 empty → feedback to sensor input (1).
	spec := window.Tumbling(60_000_000)
	j := newTestJoin(FeedbackExploit, false)
	j.ThriftyWindow = &spec
	j.ThriftyProbe = 0
	var fb []core.Feedback
	exec.Drive(j,
		exec.Tuples(0, probe(1, 10_000_000, 45)), // window 0 occupied
		// Probe punctuation closes windows 0 and 1.
		exec.Punct(0, leftPunct(120_000_000-1)),
		exec.Call(func(tr *exec.Trace) { fb = tr.Sent[1] }))
	if len(fb) != 1 {
		t.Fatalf("thrifty feedback: %v", fb)
	}
	f := fb[0]
	if f.Intent != core.Assumed {
		t.Error("thrifty feedback must be assumed")
	}
	pr := f.Pattern.Pred(1)
	if pr.Op != punct.Between || pr.Val.Micros() != 60_000_000 || pr.Hi.Micros() != 120_000_000-1 {
		t.Errorf("empty-window pattern: %v", f.Pattern)
	}
	if j.Stats().ThriftySent != 1 {
		t.Error("thrifty counter")
	}
}

// TestThriftyJoinChecksFromEarliestProbeEntry: the first probe punctuation
// checks the windows from that of the earliest probe entry held, and none
// when none is held, not every window since the epoch: one probe tuple and
// one probe punctuation ten days past it draw no feedback, where counting
// from window 0 sent 14 400. And checkThrifty allocates nothing for the
// windows it closes and finds occupied: a sliding window ten days long
// puts one entry in 14 400 windows.
func TestThriftyJoinChecksFromEarliestProbeEntry(t *testing.T) {
	const minute, days = int64(60_000_000), int64(10 * 24 * 60 * 60_000_000)
	spec := window.Tumbling(minute)
	for name, script := range map[string][]exec.Script{
		"one entry": {exec.Tuples(0, probe(1, days, 45)), exec.Punct(0, leftPunct(days+minute-1))},
		"none held": {exec.Punct(0, leftPunct(days))},
	} {
		j := newTestJoin(FeedbackExploit, false)
		j.ThriftyWindow = &spec
		tr := exec.Drive(j, script...)
		if tr.Err != nil {
			t.Fatal(tr.Err)
		}
		if n := len(tr.Sent[1]); n != 0 || j.Stats().ThriftySent != 0 {
			t.Fatalf("%s: %d thrifty feedbacks for the windows before the first probe punctuation", name, n)
		}
	}

	long := window.Sliding(days, minute)
	j := newTestJoin(FeedbackExploit, false)
	j.ThriftyWindow = &long
	var ctx discardCtx
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := j.ProcessTuple(0, probe(1, days, 45), ctx); err != nil {
		t.Fatal(err)
	}
	if lo, hi := long.WindowsOf(days); hi-lo+1 != 14_400 {
		t.Fatalf("the entry lies in %d windows", hi-lo+1)
	}
	if n := testing.AllocsPerRun(5, func() { j.checkThrifty(watermark{}, 2*days, ctx) }); n != 0 || j.Stats().ThriftySent != 0 {
		t.Fatalf("closing 14 400 occupied windows: %v allocations, %d feedbacks", n, j.Stats().ThriftySent)
	}
}

// TestThriftyLeftOuterJoinMustProbeLeft: Open refuses a thrifty LEFT OUTER
// join probing its right input, naming the join. An empty right window would
// tell the left input to drop tuples the join owes a null-padded row: run,
// it emits window 1's <1, 01:10, 45, null> and sends ¬[*, window 1, *] to
// its left input.
func TestThriftyLeftOuterJoinMustProbeLeft(t *testing.T) {
	spec := window.Tumbling(60_000_000)
	j := newTestJoin(FeedbackExploit, false)
	j.LeftOuter, j.ThriftyWindow, j.ThriftyProbe = true, &spec, 1
	tr := exec.Drive(j,
		exec.Tuples(0, probe(1, 70_000_000, 45)),
		exec.Punct(1, leftPunct(120_000_000-1)))
	if tr.Err == nil || !strings.Contains(tr.Err.Error(), `"join"`) {
		t.Fatalf("ran with error %v: emitted %v and sent its left input %v", tr.Err, tr.Out[0].Lines(), tr.Sent[0])
	}
}

func TestImpatientJoinSendsDesired(t *testing.T) {
	j := newTestJoin(FeedbackExploit, false)
	j.Impatient = true
	var fb []core.Feedback
	tr := exec.Drive(j,
		exec.Tuples(0, probe(3, 700, 45)),
		exec.Call(func(tr *exec.Trace) { fb = tr.Sent[1] }),
		// Repeat key: no duplicate feedback.
		exec.Tuples(0, probe(3, 700, 46)))
	if len(fb) != 1 || fb[0].Intent != core.Desired {
		t.Fatalf("impatient feedback: %v", fb)
	}
	p := fb[0].Pattern
	if p.Pred(0).Val.AsInt() != 3 || p.Pred(1).Val.Micros() != 700 || !p.Pred(2).IsWild() {
		t.Errorf("desired pattern: %v (want ?[3, 700, *])", p)
	}
	if len(tr.Sent[1]) != 1 {
		t.Error("duplicate keys must not re-send desired feedback")
	}
}

// TestImpatientAskedSetBounded: the keys already asked for are the keys the
// left side holds, so the record of them shrinks with punctuation like the
// side does. With the timestamp among the join keys — the paper's
// ?[period, segment, *] shape — right punctuation for a period retires its
// keys, so over 10 000 periods × 8 segments the side, and each capture, stay
// the size of one period; every key is still asked for exactly once.
func TestImpatientAskedSetBounded(t *testing.T) {
	const periods, segments = 10_000, 8
	period := func(p int64) exec.Script {
		var s exec.Script
		for rep := 0; rep < 2; rep++ { // each key twice: asked for once
			for seg := int64(0); seg < segments; seg++ {
				s = append(s, exec.Tuples(0, probe(seg, p, 45))...)
			}
		}
		return s
	}
	one := newTestJoin(FeedbackExploit, false)
	one.Impatient = true
	var onePeriod int
	exec.Drive(one, period(periods), exec.Call(func(*exec.Trace) { onePeriod = len(captureBlob(inRun{t}, one)) }))

	j := newTestJoin(FeedbackExploit, false)
	j.Impatient = true
	var script []exec.Script
	for p := int64(0); p < periods; p++ {
		script = append(script, period(p))
		if p%100 == 0 {
			script = append(script, exec.Call(func(*exec.Trace) {
				if n := len(captureBlob(inRun{t}, j)); n > 2*onePeriod {
					inRun{t}.Fatalf("period %d: capture is %dB; one period of state is %dB", p, n, onePeriod)
				}
			}))
		}
		script = append(script, exec.Punct(0, leftPunct(p)), exec.Punct(1, leftPunct(p)), exec.Call(func(*exec.Trace) {
			if n := len(j.sides[0].entries); n != 0 {
				inRun{t}.Fatalf("period %d: %d keys still held after the period was punctuated shut", p, n)
			}
		}))
	}
	if tr := exec.Drive(j, script...); tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if got := j.Stats().ImpatientSent; got != periods*segments {
		t.Fatalf("ImpatientSent = %d, want %d (once per key)", got, periods*segments)
	}
}

// TestJoinDefinition1Property: random join inputs, random single-sided
// feedback, exploit and guard-output modes both satisfy Definition 1.
func TestJoinDefinition1Property(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		type ev struct {
			input int
			t     stream.Tuple
		}
		var evs []ev
		n := 10 + r.Intn(40)
		for i := 0; i < n; i++ {
			seg, ts, v := r.Int63n(3), int64(r.Intn(3)*100), 40+float64(r.Intn(20))
			if r.Intn(2) == 0 {
				evs = append(evs, ev{0, probe(seg, ts, v)})
			} else {
				evs = append(evs, ev{1, sensor(seg, ts, v)})
			}
		}
		seg := r.Int63n(3)
		fb := core.NewAssumed(punct.OnAttr(4, 0, punct.Eq(stream.Int(seg))))
		fbAt := r.Intn(n)
		run := func(mode FeedbackMode) []stream.Tuple {
			j := newTestJoin(mode, false)
			var script []exec.Script
			for i, e := range evs {
				if i == fbAt {
					script = append(script, exec.Feedback(0, fb))
				}
				script = append(script, exec.Tuples(e.input, e.t))
			}
			tr := exec.Drive(j, append(script, exec.EOS(0), exec.EOS(1))...)
			if tr.Err != nil {
				t.Fatal(tr.Err)
			}
			return tr.Out[0].Tuples()
		}
		ref := run(FeedbackIgnore)
		for _, mode := range []FeedbackMode{FeedbackGuardOutput, FeedbackExploit} {
			if err := core.CheckExploitation(ref, run(mode), fb).Err(); err != nil {
				t.Fatalf("trial %d mode %v: %v", trial, mode, err)
			}
		}
	}
}
