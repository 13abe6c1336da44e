package op

import (
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// captureAt is a step that captures st's state into blob, the operator idle
// between two items — where a checkpoint's cut finds it.
func captureAt(t testing.TB, st snapshot.Stater, blob *[]byte) exec.Script {
	return exec.Call(func(*exec.Trace) { *blob = captureBlob(inRun{t}, st) })
}

// TestAggregateStateRoundTrip interrupts an aggregate mid-window and checks
// the restored twin finishes the stream with byte-identical output.
func TestAggregateStateRoundTrip(t *testing.T) {
	feedFirst := exec.Tuples(0,
		traffic(1, 1, 10*1_000_000, 40),
		traffic(2, 1, 20*1_000_000, 30),
		traffic(1, 2, 30*1_000_000, 60),
	)
	feedRest := append(exec.Tuples(0, traffic(2, 2, 40*1_000_000, 50)), exec.Punct(0, tsPunct(2*minute))...)

	// Uninterrupted reference.
	ref := minuteAvg(FeedbackExploit, false)
	hr := exec.Drive(ref, feedFirst, feedRest)

	// Interrupted: save after the first batch, restore into a twin, finish.
	a1 := minuteAvg(FeedbackExploit, false)
	var blob []byte
	exec.Drive(a1, feedFirst, captureAt(t, a1, &blob))
	a2 := minuteAvg(FeedbackExploit, false)
	h2 := exec.Drive(a2, exec.Restore(blob), feedRest)
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}

	want, got := hr.Out[0].Tuples(), h2.Out[0].Tuples()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("restored run emitted %d results, reference %d", len(got), len(want))
	}
	for i := range want {
		if !slices.EqualFunc(got[i].Values, want[i].Values, stream.Value.Equal) {
			t.Fatalf("result %d: restored %v, reference %v", i, got[i], want[i])
		}
	}
	if a2.Stats().In != a1.Stats().In+1 {
		t.Fatalf("input accounting lost: %d after restore", a2.Stats().In)
	}
}

// TestAggregateRefusesStaleLayout: a state blob written before the aggregate's
// blobs carried a layout marker — an entry count, then per entry the key
// string, wid, group values and accumulators — is refused by name, for any
// entry count, instead of being misparsed into state.
func TestAggregateRefusesStaleLayout(t *testing.T) {
	for entries := 0; entries < 3; entries++ {
		enc := snapshot.NewEncoder()
		enc.PutInt(entries)
		for i := 0; i < entries; i++ {
			enc.PutString("0;\x011;")
			enc.PutInt64(0)
			enc.PutValues([]stream.Value{stream.Int(1)})
			enc.PutInt64(2)
			enc.PutFloat64(70)
			enc.PutFloat64(30)
			enc.PutFloat64(40)
		}
		enc.PutInt(0) // output guards
		enc.PutInt(0) // prefix guards
		for c := 0; c < 7; c++ {
			enc.PutInt64(2)
		}
		stale, err := enc.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		a := minuteAvg(FeedbackExploit, false)
		err = exec.Drive(a, exec.Restore(stale)).Err
		if err == nil || !strings.Contains(err.Error(), `"average"`) || !strings.Contains(err.Error(), "layout") {
			t.Fatalf("restore of a stale blob with %d entries: %v, want an error naming the operator and the layout", entries, err)
		}
		if got := a.Stats(); got.OpenGroups != 0 || got.In != 0 {
			t.Fatalf("restore of a stale blob left state behind: %+v", got)
		}
	}
}

// TestAggregateRestoreDropsAssumedState pins the recovery-time state
// purge: in guard-output mode the live aggregate keeps folding a
// disclaimed group (F1 keeps state, suppresses only emission), but the
// restored twin drops it — the paper's state-purging argument applied at
// recovery.
func TestAggregateRestoreDropsAssumedState(t *testing.T) {
	a1 := minuteAvg(FeedbackGuardOutput, false)
	var blob []byte
	var open1, open2 int
	h1 := exec.Drive(a1,
		exec.Tuples(0,
			traffic(1, 1, 10*1_000_000, 40),
			traffic(2, 1, 20*1_000_000, 30),
		),
		// ¬[segment=2, *, *] over the output schema.
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(2))))),
		exec.Call(func(*exec.Trace) { open1 = a1.Stats().OpenGroups }),
		captureAt(t, a1, &blob))
	if h1.Err != nil {
		t.Fatal(h1.Err)
	}
	if got := open1; got != 2 {
		t.Fatalf("guard-output mode must retain state; open groups = %d", got)
	}

	a2 := minuteAvg(FeedbackGuardOutput, false)
	h2 := exec.Drive(a2, exec.Restore(blob),
		exec.Call(func(*exec.Trace) { open2 = a2.Stats().OpenGroups }),
		exec.Punct(0, tsPunct(2*minute)))
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}
	if got := open2; got != 1 {
		t.Fatalf("restore must drop the disclaimed group; open groups = %d", got)
	}
	for _, tp := range h2.Out[0].Tuples() {
		if tp.At(0).AsInt() == 2 {
			t.Fatalf("disclaimed segment emitted after restore: %v", tp)
		}
	}
}

func testJoin(mode FeedbackMode) *Join {
	return &Join{
		OpName: "j", Left: trafficSchema, Right: trafficSchema,
		LeftKeys: []int{0, 2}, RightKeys: []int{0, 2}, LeftTs: 2, RightTs: 2,
		Mode: mode,
	}
}

// TestJoinStateRoundTrip interrupts a symmetric hash join with both tables
// populated and checks the twin joins the remaining stream identically.
func TestJoinStateRoundTrip(t *testing.T) {
	feedFirst := []exec.Script{
		exec.Tuples(0, traffic(1, 1, 10, 40)),
		exec.Tuples(0, traffic(2, 1, 20, 30)),
		exec.Tuples(1, traffic(1, 9, 10, 70)), // partners left 1
	}
	feedRest := []exec.Script{
		exec.Tuples(1, traffic(2, 8, 20, 75)), // partners the buffered left 2
		exec.Tuples(0, traffic(1, 3, 10, 45)), // partners the buffered right 1
		exec.Punct(0, tsPunct(100)),
		exec.Punct(1, tsPunct(100)),
	}

	ref := testJoin(FeedbackExploit)
	hr := exec.Drive(ref, append(feedFirst, feedRest...)...)

	j1 := testJoin(FeedbackExploit)
	var blob []byte
	h1 := exec.Drive(j1, append(feedFirst, captureAt(t, j1, &blob))...)
	j2 := testJoin(FeedbackExploit)
	var s JoinStats
	h2 := exec.Drive(j2, append(append([]exec.Script{exec.Restore(blob)}, feedRest...),
		exec.Call(func(*exec.Trace) { s = j2.Stats() }))...)
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}

	// The interrupted run's output is what it emitted before the cut plus
	// what the twin emits after it.
	want := hr.Out[0].Tuples()
	got := append(h1.Out[0].Tuples(), h2.Out[0].Tuples()...)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("interrupted run emitted %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if !slices.EqualFunc(got[i].Values, want[i].Values, stream.Value.Equal) {
			t.Fatalf("pair %d: restored %v, reference %v", i, got[i], want[i])
		}
	}
	if s.LeftEntries != 0 || s.RightEntries != 0 {
		t.Fatalf("punctuation must purge restored tables: %+v", s)
	}
}

// TestJoinRestoreDropsGuardedEntries: hash-table entries covered by a
// restored input guard are dropped at load.
func TestJoinRestoreDropsGuardedEntries(t *testing.T) {
	j1 := testJoin(FeedbackExploit)
	// Left-bound assumed feedback on the output: detector (a left
	// attribute) equals 1 → guards and purges the left side.
	outArity := j1.OutSchemas()[0].Arity()
	var blob []byte
	h1 := exec.Drive(j1,
		exec.Tuples(0, traffic(1, 1, 10, 40), traffic(2, 1, 20, 30)),
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(outArity, 1, punct.Eq(stream.Int(1))))),
		captureAt(t, j1, &blob))
	if h1.Err != nil {
		t.Fatal(h1.Err)
	}

	j2 := testJoin(FeedbackExploit)
	var s JoinStats
	h2 := exec.Drive(j2, exec.Restore(blob),
		exec.Call(func(*exec.Trace) { s = j2.Stats() }),
		// New matching tuples stay suppressed by the restored guard.
		exec.Tuples(0, traffic(3, 1, 30, 50)),
		exec.Tuples(1, traffic(3, 7, 31, 55)))
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}
	if s.LeftEntries != 0 {
		t.Fatalf("restored left table keeps %d guarded entries", s.LeftEntries)
	}
	if got := h2.Out[0].Tuples(); len(got) != 0 {
		t.Fatalf("restored guard must keep suppressing: %v", got)
	}
}

// joinLayout1 is a Join blob in layout −1, whose entries carried the ids only
// a delta needed: the golden the build before joinLayout wrote for the join
// row of TestStateBytesGolden.
const joinLayout1 = "01060204080108010404d80402404900000000000000d80400040202080106011204f40302405180000000000000f4030006060002010200feffffffffffffffff01000202010400feffffffffffffffff01000402010800feffffffffffffffff0100280100c801010028010204020006020001040001010a00000676696577657200060200010400000006024059000000000000067669657765720008040001070001010a00000000000676696577657202060001070000000000000602405900000000000006766965776572020802020000000006"

// joinLayout2 is a Join blob in layout −2, which kept the impatient join's
// asked keys as a third side and the thrifty join's probe window counts: the
// golden the build before joinLayout −3 wrote for the join row of
// TestStateBytesGolden.
const joinLayout2 = "0302080108010404d80402404900000000000000d8040002080106011204f40302405180000000000000f403000404010804d80400d8040004010a0478007800280100c801010028010204020008020001040001010a00000676696577657200060200010400000006024059000000000000067669657765720008040001060001010a0000000006766965776572020600010600000000000602405900000000000006766965776572020802040000000008"

// TestJoinRefusesStaleLayout: a Join blob in a layout before joinLayout — one
// with no marker (per side a count and {tuple, ts, matched} entries), layout
// −1 (entries with ids) or layout −2 (asked keys and probe counts) — is
// refused with an error naming the operator and the layout, not misparsed.
func TestJoinRefusesStaleLayout(t *testing.T) {
	var stale [][]byte
	for entries := 0; entries < 3; entries++ {
		enc := snapshot.NewEncoder()
		for side := 0; side < 2; side++ {
			enc.PutInt(entries)
			for i := 0; i < entries; i++ {
				enc.PutTuple(traffic(1, 1, 10, 40))
				enc.PutInt64(10)
				enc.PutBool(false)
			}
		}
		for wm := 0; wm < 3; wm++ {
			enc.PutInt64(0)
			enc.PutBool(false)
		}
		enc.PutBool(false) // left EOS
		enc.PutBool(false) // right EOS
		enc.PutInt(0)      // thrifty windows
		enc.PutInt64(-1)   // probeDone
		enc.PutInt(0)      // impatient keys
		enc.PutInt64(0)    // feedbackSeq
		for guards := 0; guards < 3; guards++ {
			enc.PutInt(0)
		}
		for c := 0; c < 7; c++ {
			enc.PutInt64(2)
		}
		blob, err := enc.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		stale = append(stale, blob)
	}
	for _, golden := range []string{joinLayout1, joinLayout2} {
		blob, err := hex.DecodeString(golden)
		if err != nil {
			t.Fatal(err)
		}
		stale = append(stale, blob)
	}
	for i, blob := range stale {
		j := testJoin(FeedbackExploit)
		err := exec.Drive(j, exec.Restore(blob)).Err
		if err == nil || !strings.Contains(err.Error(), `"j"`) || !strings.Contains(err.Error(), "layout") {
			t.Fatalf("restore of stale blob %d: %v, want an error naming the operator and the layout", i, err)
		}
		if got := j.Stats(); got != (JoinStats{}) {
			t.Fatalf("restore of stale blob %d left state behind: %+v", i, got)
		}
	}
}

// TestStoredTuplesMustHaveTheirStreamsArity: a tuple a blob stores — a join
// entry, a tuple in PRIORITIZE's buffer — with fewer values than its stream
// has attributes, none or one of four, is refused at load, not kept for the
// key projection or a guard probe to index past its end.
func TestStoredTuplesMustHaveTheirStreamsArity(t *testing.T) {
	for _, vals := range [][]stream.Value{nil, {stream.Int(1)}} {
		bad := stream.NewTuple(vals...)
		join := snapshot.NewEncoder()
		join.PutInt64(joinLayout)
		join.PutInt(1) // left side
		join.PutTuple(bad)
		join.PutInt64(10)
		join.PutBool(false)
		join.PutInt(0) // right side
		for w := 0; w < 2; w++ {
			join.PutInt64(0)
			join.PutBool(false)
			join.PutBool(false)
		}
		join.PutInt64(0)           // last output watermark
		join.PutBool(false)        // ... unset
		join.PutInt64(0)           // feedback sequence
		for g := 0; g < 3+7; g++ { // guard tables, counters
			join.PutInt(0)
		}
		prio := snapshot.NewEncoder()
		prio.PutInt(1)
		prio.PutTuple(bad)
		for n := 0; n < 2+4; n++ { // desired patterns, guards, counters
			prio.PutInt(0)
		}
		for _, tc := range []struct {
			name string
			st   snapshot.Stater
			enc  *snapshot.Encoder
		}{
			{"join", testJoin(FeedbackExploit), join},
			{"prioritize", &Prioritize{Schema: trafficSchema, Mode: FeedbackExploit}, prio},
		} {
			blob, err := tc.enc.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.Drive(tc.st.(exec.Operator), exec.Restore(blob)).Err; err == nil || !strings.Contains(err.Error(), "arity") {
				t.Fatalf("%s: a stored tuple of %d values loads with %v, want an arity error", tc.name, len(vals), err)
			}
		}
	}
}

// TestPaceStateRoundTrip: a restored PACE keeps dropping tuples its
// pre-crash feedback disclaimed, instead of re-admitting them with a fresh
// watermark, and resumes its punctuation alignment where the cut left it.
func TestPaceStateRoundTrip(t *testing.T) {
	mk := func() *Pace {
		return &Pace{OpName: "pace", Schema: trafficSchema, K: 2, TsAttr: 2,
			Tolerance: 1000, FeedbackEnabled: true}
	}
	p1 := mk()
	seg5 := punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(5))))
	var blob []byte
	var setup []punct.Embedded
	h1 := exec.Drive(p1,
		exec.Tuples(0, traffic(1, 1, 10_000, 50)),
		exec.Tuples(1, traffic(1, 2, 500, 50)), // late: dropped, feedback produced
		exec.Punct(0, tsPunct(9_000)),
		exec.Punct(1, tsPunct(400)), // aligned: ≤400
		exec.Punct(0, seg5),         // pending on input 1
		exec.Call(func(tr *exec.Trace) { setup = puncts(tr.Out[0]) }),
		captureAt(t, p1, &blob))
	if h1.Err != nil {
		t.Fatal(h1.Err)
	}
	if p1.FeedbackSent() == 0 || len(setup) != 1 {
		t.Fatalf("setup: %d feedback, punctuation %v", p1.FeedbackSent(), setup)
	}

	p2 := mk()
	var hwSet bool
	var hw int64
	var late []stream.Tuple
	var st []PaceInputStats
	var got []punct.Embedded
	h2 := exec.Drive(p2, exec.Restore(blob),
		exec.Call(func(*exec.Trace) { hwSet, hw = p2.hwSet, p2.hw }),
		// A tuple older than hw−tolerance must still be dropped.
		exec.Tuples(0, traffic(1, 3, 600, 50)),
		exec.Call(func(tr *exec.Trace) { late, st = tr.Out[0].Tuples(), p2.InputStats() }),
		// The frontier already promised is not repeated; input 1 catching up
		// releases input 0's frontier and the pending pattern, exactly once each.
		exec.Punct(1, tsPunct(400), seg5, tsPunct(9_500)),
		exec.Call(func(tr *exec.Trace) { got = puncts(tr.Out[0]) }))
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}
	if !hwSet || hw != 10_000 {
		t.Fatalf("high watermark lost: %d %v", hw, hwSet)
	}
	if len(late) != 0 {
		t.Fatalf("restored pace re-admitted a late tuple: %v", late)
	}
	if st[0].Dropped != 1 || st[1].Dropped != 1 {
		t.Fatalf("drop accounting: %+v", st)
	}
	if len(got) != 2 || !got[0].Pattern.Equal(seg5.Pattern) || !got[1].Pattern.Equal(tsPunct(9_000).Pattern) {
		t.Fatalf("restored pace emitted %v, want segment 5 then ≤9000", got)
	}
}

// TestPaceRefusesStaleLayout: a Pace blob in the layout before paceLayout —
// the scalars, an input count and one {bound, set, eos} watermark per input,
// then the per-input counts — is refused with an error naming the operator
// and the layout, not misparsed into alignment state.
func TestPaceRefusesStaleLayout(t *testing.T) {
	enc := snapshot.NewEncoder()
	enc.PutInt64(10_000) // hw
	enc.PutBool(true)
	enc.PutInt64(9_500) // lastCutoff
	enc.PutBool(true)
	enc.PutInt64(1) // feedbackSeq
	enc.PutInt64(1) // feedbackSent
	enc.PutInt(2)
	for input := 0; input < 2; input++ {
		enc.PutInt64(400)
		enc.PutBool(true)
		enc.PutBool(false)
	}
	for c := 0; c < 4; c++ {
		enc.PutInt64(1)
	}
	stale, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	p := &Pace{OpName: "pace", Schema: trafficSchema, K: 2, TsAttr: 2, Tolerance: 1000}
	err = exec.Drive(p, exec.Restore(stale)).Err
	if err == nil || !strings.Contains(err.Error(), `"pace"`) || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("restore of a stale blob: %v, want an error naming the operator and the layout", err)
	}
	if p.hwSet {
		t.Fatal("restore of a stale blob left state behind")
	}
}

// TestImputeStateRoundTrip: the restored impute keeps skipping lookups for
// the disclaimed subset.
func TestImputeStateRoundTrip(t *testing.T) {
	mk := func() *Impute { return newTestImpute(FeedbackExploit) }
	im1 := mk()
	var blob []byte
	if h1 := exec.Drive(im1, exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(1000))))),
		captureAt(t, im1, &blob)); h1.Err != nil {
		t.Fatal(h1.Err)
	}

	im2 := mk()
	h2 := exec.Drive(im2, exec.Restore(blob), exec.Tuples(0,
		trafficNull(1, 1, 500), // disclaimed: no lookup, no output
		trafficNull(1, 1, 5000)))
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}
	if got := h2.Out[0].Tuples(); len(got) != 1 {
		t.Fatalf("restored impute guard: %d outputs, want 1", len(got))
	}
	if _, skipped, _ := im2.Stats(); skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
}

// TestMergeStateRoundTrip: the restored merge still withholds punctuation a
// lagging partition has not covered, and remembers the frontier it already
// promised downstream.
func TestMergeStateRoundTrip(t *testing.T) {
	mk := func() *Merge {
		return &Merge{OpName: "m", Schema: trafficSchema, K: 3, Mode: FeedbackExploit}
	}
	m1 := mk()
	var blob []byte
	var aligned, ps []punct.Embedded
	h1 := exec.Drive(m1,
		// Inputs 0 and 1 punctuate to 1000; input 2 lags at 200.
		exec.Punct(0, tsPunct(1000)),
		exec.Punct(1, tsPunct(1000)),
		exec.Punct(2, tsPunct(200)),
		exec.Call(func(tr *exec.Trace) { aligned = puncts(tr.Out[0]) }),
		captureAt(t, m1, &blob))
	if h1.Err != nil {
		t.Fatal(h1.Err)
	}
	if got := len(aligned); got != 1 {
		t.Fatalf("aligned frontier emissions = %d, want 1 (ts≤200)", got)
	}

	m2 := mk()
	h2 := exec.Drive(m2, exec.Restore(blob),
		// Input 2 catching up to 1000 must release exactly the min frontier.
		exec.Punct(2, tsPunct(1000)),
		exec.Call(func(tr *exec.Trace) { ps = puncts(tr.Out[0]) }))
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}
	if len(ps) != 1 {
		t.Fatalf("restored merge emitted %d punctuations, want 1", len(ps))
	}
	want := punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(1000)))
	if !ps[0].Pattern.Equal(want) {
		t.Fatalf("restored merge emitted %v, want %v", ps[0], want)
	}
}

// TestSplitStateRoundTrip: per-partition guards and the round-robin cursor
// survive restore.
func TestSplitStateRoundTrip(t *testing.T) {
	mk := func() *Split {
		return &Split{OpName: "s", Schema: trafficSchema, N: 3, Mode: FeedbackExploit}
	}
	s1 := mk()
	var blob []byte
	h1 := exec.Drive(s1,
		exec.Tuples(0,
			traffic(1, 1, 10, 50), // rr → out 0
			traffic(1, 1, 11, 50), // rr → out 1
		),
		exec.Feedback(2, assumedOnSegment(9)),
		captureAt(t, s1, &blob))
	if h1.Err != nil {
		t.Fatal(h1.Err)
	}

	s2 := mk()
	var onTwo int
	h2 := exec.Drive(s2, exec.Restore(blob),
		// Round-robin continues at partition 2.
		exec.Tuples(0, traffic(1, 1, 12, 50)),
		exec.Call(func(tr *exec.Trace) { onTwo = len(tr.Out[2].Items()) }),
		// Partition 2's restored guard suppresses its disclaimed subset.
		exec.Tuples(0, traffic(9, 1, 13, 50))) // rr → partition 0: passes (guard is per-destination)
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}
	if got := onTwo; got != 1 {
		t.Fatalf("round-robin cursor lost: partition 2 got %d items", got)
	}
	_, _, suppressed := s2.Stats()
	if suppressed != 0 {
		t.Fatalf("tuple for unguarded partition suppressed")
	}
}

// TestStateRoundTripRejectsFanChange: restoring into an operator with a
// different partition/input fan fails loudly.
func TestStateRoundTripRejectsFanChange(t *testing.T) {
	m1 := &Merge{OpName: "m", Schema: trafficSchema, K: 3}
	var blob []byte
	if h1 := exec.Drive(m1, captureAt(t, m1, &blob)); h1.Err != nil {
		t.Fatal(h1.Err)
	}

	m2 := &Merge{OpName: "m", Schema: trafficSchema, K: 2}
	if err := exec.Drive(m2, exec.Restore(blob)).Err; err == nil {
		t.Fatal("fan change accepted")
	}
}

// aggregate window state sanity: restoring must not resurrect windows the
// reference run would have closed — covered by TestAggregateStateRoundTrip
// comparing full outputs; this test pins the purge-at-load counter.
func TestAggregateRestorePurgeCounter(t *testing.T) {
	a1 := minuteAvg(FeedbackGuardOutput, false)
	var blob []byte
	var live, restored AggregateStats
	exec.Drive(a1, exec.Tuples(0, traffic(5, 1, 10*1_000_000, 40)),
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(5))))),
		exec.Call(func(*exec.Trace) { live = a1.Stats() }),
		captureAt(t, a1, &blob))
	a2 := minuteAvg(FeedbackGuardOutput, false)
	if h2 := exec.Drive(a2, exec.Restore(blob), exec.Call(func(*exec.Trace) { restored = a2.Stats() })); h2.Err != nil {
		t.Fatal(h2.Err)
	}
	if restored.Purged != live.Purged+1 {
		t.Fatalf("restore purge not accounted: %d vs %d", restored.Purged, live.Purged)
	}
}

// TestDuplicateStateRoundTrip pins the Stater the staterstate analyzer
// demanded: per-consumer assertions and the relayed-pattern set survive a
// restore, so the twin keeps exploiting unanimously-asserted feedback and
// does not relay the same pattern upstream a second time.
func TestDuplicateStateRoundTrip(t *testing.T) {
	d1 := &Duplicate{Schema: trafficSchema, N: 2, Mode: FeedbackExploit, Propagate: true}
	f := assumedOnSegment(3)
	var blob []byte
	h1 := exec.Drive(d1, exec.Feedback(0, f), exec.Feedback(1, f),
		exec.Tuples(0, traffic(3, 1, 10, 50)), // unanimous: suppressed, relayed upstream
		captureAt(t, d1, &blob))
	if len(h1.Sent[0]) != 1 {
		t.Fatal("setup: unanimous feedback must propagate")
	}

	d2 := &Duplicate{Schema: trafficSchema, N: 2, Mode: FeedbackExploit, Propagate: true}
	h2 := exec.Drive(d2, exec.Restore(blob),
		// The restored twin keeps suppressing the disclaimed subset...
		exec.Tuples(0, traffic(3, 2, 20, 55)),
		// ...and does not relay the already-propagated pattern again.
		exec.Feedback(0, f), exec.Feedback(1, f))
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}
	if len(h2.Out[0].Tuples()) != 0 || len(h2.Out[1].Tuples()) != 0 {
		t.Fatal("restored DUPLICATE lost its consumers' assertions")
	}
	if len(h2.Sent[0]) != 0 {
		t.Fatal("restored DUPLICATE re-relayed an already-propagated pattern")
	}
	if d2.in != 2 || d2.suppressed != 2 {
		t.Fatalf("counters not restored: in=%d suppressed=%d", d2.in, d2.suppressed)
	}
}

// TestPrioritizeStateRoundTrip pins the buffer-carrying Stater the
// staterstate analyzer demanded: tuples sitting in the reorder buffer at
// the cut — consumed from upstream, not yet emitted — reappear from the
// restored twin, and the installed guard keeps suppressing.
func TestPrioritizeStateRoundTrip(t *testing.T) {
	p1 := &Prioritize{Schema: trafficSchema, Mode: FeedbackExploit}
	var blob []byte
	var buffered []stream.Tuple
	exec.Drive(p1,
		exec.Tuples(0,
			traffic(1, 1, 10, 50), // buffered
			traffic(2, 1, 20, 55), // buffered
		),
		exec.Feedback(0, assumedOnSegment(3)),
		outAt(&buffered),
		captureAt(t, p1, &blob))
	if len(buffered) != 0 {
		t.Fatal("setup: tuples must still be buffered")
	}

	p2 := &Prioritize{Schema: trafficSchema, Mode: FeedbackExploit}
	h2 := exec.Drive(p2, exec.Restore(blob),
		// The restored guard still suppresses the disclaimed subset.
		exec.Tuples(0, traffic(3, 1, 30, 60)),
		// EOS drains the restored buffer: both pre-crash tuples must appear.
		exec.EOS(0))
	if h2.Err != nil {
		t.Fatal(h2.Err)
	}
	got := h2.Out[0].Tuples()
	if len(got) != 2 {
		t.Fatalf("restored buffer emitted %d tuples, want 2", len(got))
	}
	for i, want := range []int64{1, 2} {
		if got[i].At(0).AsInt() != want {
			t.Fatalf("tuple %d: segment %d, want %d", i, got[i].At(0).AsInt(), want)
		}
	}
	in, _, _, dropped := p2.Stats()
	if in != 3 || dropped != 1 {
		t.Fatalf("counters not restored: in=%d dropped=%d", in, dropped)
	}
}

// A restored Prioritize still promotes its desired subsets: a matching
// arrival bypasses the buffer. Punctuation covering one subset releases that
// pattern there as it would have before the cut, and the other subset is
// still promoted. The script keeps its punctuation's promise (§3.1): no
// tuple of the released subset arrives after it.
func TestPrioritizeRestoredDesiredPromotesUntilPunctuated(t *testing.T) {
	seg := func(s int64) punct.Pattern { return punct.OnAttr(4, 0, punct.Eq(stream.Int(s))) }
	p1 := &Prioritize{Schema: trafficSchema, Mode: FeedbackExploit}
	var blob []byte
	exec.Drive(p1, exec.Feedback(0, core.NewDesired(seg(2)), core.NewDesired(seg(3))), captureAt(t, p1, &blob))

	input := []queue.Item{
		queue.TupleItem(traffic(1, 1, 10, 50)), queue.TupleItem(traffic(2, 1, 20, 55)),
		queue.PunctItem(punct.NewEmbedded(seg(2))),
		queue.TupleItem(traffic(3, 2, 30, 60)), queue.TupleItem(traffic(1, 2, 40, 65)),
	}
	keepsPromises(t, "the script", trafficSchema.Arity(), input)
	p2 := &Prioritize{Schema: trafficSchema, Mode: FeedbackExploit}
	var promoted, got []stream.Tuple
	tr := exec.Drive(p2, exec.Restore(blob),
		exec.Items(0, input[:2]...), outAt(&promoted),
		exec.Items(0, input[2:]...), outAt(&got))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if len(promoted) != 1 || promoted[0].At(0).AsInt() != 2 {
		t.Fatalf("restored twin promoted %v, want the segment-2 tuple alone", promoted)
	}
	if len(got) != 3 || got[2].At(0).AsInt() != 3 {
		t.Fatalf("after the punctuation the segment-3 arrival must still be promoted, and segment 1's wait in the buffer: emitted %v", got)
	}
	held := 0
	for _, table := range p2.Tables() {
		held += table.Active()
	}
	if held != 1 {
		t.Fatalf("the punctuation left %d patterns held, want segment 3's alone", held)
	}
}

// A desired pattern of another arity (a miswired or hostile relay) describes
// no tuple of the stream: the held table refuses it, so no capture carries it
// into a restore that would fail on it.
func TestPrioritizeRefusesForeignArityDesired(t *testing.T) {
	p1 := &Prioritize{Schema: trafficSchema, Mode: FeedbackExploit}
	var blob []byte
	exec.Drive(p1, exec.Feedback(0, core.NewDesired(punct.OnAttr(2, 0, punct.Eq(stream.Int(2))))), captureAt(t, p1, &blob))

	p2 := &Prioritize{Schema: trafficSchema, Mode: FeedbackExploit}
	if tr := exec.Drive(p2, exec.Restore(blob)); tr.Err != nil {
		t.Fatalf("restore: %v", tr.Err)
	}
	for _, p := range []*Prioritize{p1, p2} {
		for _, table := range p.Tables() {
			if table.Active() != 0 {
				t.Fatalf("holds %v, a pattern over another schema", table.Guards())
			}
		}
	}
}
