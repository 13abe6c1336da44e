package op

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

func newSplit(n int, key ...int) *Split {
	return &Split{Schema: trafficSchema, N: n, Key: key, Mode: FeedbackExploit, Propagate: true}
}

func newMerge(k int) *Merge {
	return &Merge{Schema: trafficSchema, K: k, Mode: FeedbackExploit, Propagate: true}
}

func TestSplitHashRoutingIsKeyConsistent(t *testing.T) {
	s := newSplit(4, 0) // partition on segment
	var in []stream.Tuple
	for i := int64(0); i < 200; i++ {
		in = append(in, traffic(i%9, i%40, i*1000, 55))
	}
	tr := exec.Drive(s, exec.Tuples(0, in...))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	// Every tuple of one segment must land on exactly one port.
	portOf := map[int64]int{}
	total := 0
	for port := 0; port < 4; port++ {
		for _, tp := range tr.Out[port].Tuples() {
			seg := tp.At(0).AsInt()
			if prev, seen := portOf[seg]; seen && prev != port {
				t.Fatalf("segment %d routed to both port %d and %d", seg, prev, port)
			}
			portOf[seg] = port
			total++
		}
	}
	if total != 200 {
		t.Fatalf("routed %d of 200 tuples", total)
	}
	// With 9 segments over 4 partitions at least two ports must be busy.
	busy := 0
	for port := 0; port < 4; port++ {
		if len(tr.Out[port].Tuples()) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("hash routing degenerated to %d busy partitions", busy)
	}
}

func TestSplitRoundRobinBalances(t *testing.T) {
	s := newSplit(3) // keyless
	var in []stream.Tuple
	for i := int64(0); i < 9; i++ {
		in = append(in, traffic(1, 1, i*1000, 50))
	}
	tr := exec.Drive(s, exec.Tuples(0, in...))
	for port := 0; port < 3; port++ {
		if got := len(tr.Out[port].Tuples()); got != 3 {
			t.Fatalf("port %d got %d tuples, want 3", port, got)
		}
	}
}

func TestSplitBroadcastsPunctuation(t *testing.T) {
	s := newSplit(3, 0)
	tr := exec.Drive(s, exec.Punct(0, tsPunct(1000)))
	for port := 0; port < 3; port++ {
		ps := puncts(tr.Out[port])
		if len(ps) != 1 || !ps[0].Pattern.Equal(tsPunct(1000).Pattern) {
			t.Fatalf("port %d puncts = %v", port, ps)
		}
	}
}

func TestSplitPartitionLocalSuppression(t *testing.T) {
	s := newSplit(4, 0)
	// Find segment 3's partition, then let that partition disclaim it.
	probe := traffic(3, 1, 10, 50)
	dest := -1
	for port, out := range exec.Drive(newSplit(4, 0), exec.Tuples(0, probe)).Out {
		if len(out.Tuples()) == 1 {
			dest = port
		}
	}
	if dest < 0 {
		t.Fatal("probe tuple not routed")
	}
	tr := exec.Drive(s, exec.Tuples(0, probe), exec.Feedback(dest, assumedOnSegment(3)),
		exec.Tuples(0, traffic(3, 2, 20, 50), traffic(4, 2, 20, 50)))
	if out := tr.Out[dest].Tuples()[1:]; len(out) != 0 && out[0].At(0).AsInt() == 3 { // after the probe
		got := len(out)
		t.Fatalf("segment 3 must be suppressed at the split, port %d got %d tuples", dest, got)
	}
	_, _, suppressed := s.Stats()
	if suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", suppressed)
	}
}

func TestSplitForwardsKeyPinnedFeedback(t *testing.T) {
	s := newSplit(4, 0)
	// Segment-equality feedback pins the route: forward upstream at once,
	// but only when it arrives from the partition that owns the key.
	fb := assumedOnSegment(3)
	owner := s.routesOnlyTo(fb.Pattern)
	if owner < 0 {
		t.Fatal("segment equality must pin the route")
	}
	var held, once []core.Feedback
	sent := func(into *[]core.Feedback) exec.Script {
		return exec.Call(func(tr *exec.Trace) { *into = tr.Sent[0] })
	}
	tr := exec.Drive(s,
		exec.Feedback((owner+1)%4, fb), // wrong partition: hold
		sent(&held),
		exec.Feedback(owner, fb),
		sent(&once),
		// Re-assertion must not duplicate the relay.
		exec.Feedback(owner, fb))
	if got := held; len(got) != 0 {
		t.Fatalf("feedback from a non-owning partition must not be forwarded: %v", got)
	}
	if got := once; len(got) != 1 || !got[0].Pattern.Equal(fb.Pattern) {
		t.Fatalf("key-pinned feedback must forward upstream once: %v", got)
	}
	if got := tr.Sent[0]; len(got) != 1 {
		t.Fatalf("duplicate relay: %v", got)
	}
}

func TestSplitUnpinnedFeedbackNeedsUnanimity(t *testing.T) {
	s := newSplit(3, 0)
	// A ts-bound pattern does not pin the key: any partition may produce
	// matching tuples, so upstream suppression needs all three to agree.
	fb := core.NewAssumed(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(5000))))
	var partial []core.Feedback
	tr := exec.Drive(s, exec.Feedback(0, fb), exec.Feedback(1, fb),
		exec.Call(func(tr *exec.Trace) { partial = tr.Sent[0] }),
		exec.Feedback(2, fb))
	if got := partial; len(got) != 0 {
		t.Fatalf("must wait for all partitions: %v", got)
	}
	if got := tr.Sent[0]; len(got) != 1 {
		t.Fatalf("unanimous feedback must forward upstream once: %v", got)
	}
}

func TestSplitDesiredFeedbackForwardsImmediately(t *testing.T) {
	fb := core.NewDesired(punct.OnAttr(4, 2, punct.Ge(stream.TimeMicros(5000))))
	if got := exec.Drive(newSplit(3, 0), exec.Feedback(1, fb)).Sent[0]; len(got) != 1 {
		t.Fatalf("desired feedback never changes the result set; forward at once: %v", got)
	}
}

func TestMergeAlignsWatermarks(t *testing.T) {
	m := newMerge(3)
	var at [4][]punct.Embedded
	puncts := func(i int) exec.Script {
		return exec.Call(func(tr *exec.Trace) { at[i] = puncts(tr.Out[0]) })
	}
	exec.Drive(m,
		exec.Punct(0, tsPunct(3000)), exec.Punct(1, tsPunct(1000)), puncts(0),
		exec.Punct(2, tsPunct(2000)), puncts(1),
		// Non-advancing arrival: nothing new.
		exec.Punct(2, tsPunct(2500)), puncts(2),
		// The laggard advances: the min is now input 2's 2500.
		exec.Punct(1, tsPunct(4000)), puncts(3))
	if got := at[0]; len(got) != 0 {
		t.Fatalf("input 2 has not punctuated; nothing may be forwarded: %v", got)
	}
	got := at[1]
	if len(got) != 1 || !got[0].Pattern.Equal(tsPunct(1000).Pattern) {
		t.Fatalf("aligned watermark must be the min (1000): %v", got)
	}
	if got := at[2]; len(got) != 1 {
		t.Fatalf("min did not advance, no punct expected: %v", got)
	}
	got = at[3]
	if len(got) != 2 || !got[1].Pattern.Equal(tsPunct(2500).Pattern) {
		t.Fatalf("aligned watermark must advance to 2500: %v", got)
	}
}

func TestMergeLtPunctuationNormalizes(t *testing.T) {
	m := newMerge(2)
	lt := punct.NewEmbedded(punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(2001))))
	var got []punct.Embedded
	exec.Drive(m, exec.Punct(0, lt), exec.Punct(1, tsPunct(3000)),
		exec.Call(func(tr *exec.Trace) { got = puncts(tr.Out[0]) }))
	if len(got) != 1 || !got[0].Pattern.Equal(tsPunct(2000).Pattern) {
		t.Fatalf("<2001 must align as ≤2000: %v", got)
	}
}

func TestMergeEOSReleasesAlignment(t *testing.T) {
	m := newMerge(3)
	var got, after []punct.Embedded
	exec.Drive(m, exec.Punct(0, tsPunct(3000)), exec.Punct(1, tsPunct(1000)),
		// Input 2 ends without ever punctuating: it stops constraining.
		exec.EOS(2),
		exec.Call(func(tr *exec.Trace) { got = puncts(tr.Out[0]) }),
		exec.EOS(1),
		exec.Call(func(tr *exec.Trace) { after = puncts(tr.Out[0]) }))
	if len(got) != 1 || !got[0].Pattern.Equal(tsPunct(1000).Pattern) {
		t.Fatalf("EOS input must stop constraining alignment: %v", got)
	}
	got = after
	if len(got) != 2 || !got[1].Pattern.Equal(tsPunct(3000).Pattern) {
		t.Fatalf("after input 1 ends the min is input 0's 3000: %v", got)
	}
}

func TestMergeAlignsGenericPatterns(t *testing.T) {
	m := newMerge(3)
	// "Segment 5 is closed" — an equality pattern outside the watermark
	// fast path, as a split broadcast would deliver to every partition.
	seg5 := punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(5))))
	tr := exec.Drive(m, exec.Punct(0, seg5), exec.Punct(1, seg5),
		exec.Call(func(tr *exec.Trace) {
			if got := puncts(tr.Out[0]); len(got) != 0 {
				inRun{t}.Fatalf("partition 2 has not covered segment 5 yet: %v", got)
			}
			if len(m.align.pending) != 1 {
				inRun{t}.Fatalf("pending = %d, want 1", len(m.align.pending))
			}
		}),
		exec.Punct(2, seg5),
		exec.Call(func(tr *exec.Trace) {
			got := puncts(tr.Out[0])
			if len(got) != 1 || !got[0].Pattern.Equal(seg5.Pattern) {
				inRun{t}.Fatalf("unanimous generic pattern must be forwarded: %v", got)
			}
			if len(m.align.pending) != 0 {
				inRun{t}.Fatalf("pending not drained: %d", len(m.align.pending))
			}
		}))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
}

// The pending list holds patterns an input's promise record drops: input 0's
// [seg=1] is implied by its own [seg∈{1,2}], so its Scheme never records it,
// yet the merge asserts it once input 1's [seg∈{1,3}] covers it too. An
// aligner reading its candidates from the inputs' records would not.
func TestMergeForwardsWhatNoInputRecorded(t *testing.T) {
	m := newMerge(2)
	set := func(a, b int64) punct.Embedded {
		return punct.NewEmbedded(punct.OnAttr(4, 0, punct.OneOf(stream.Int(a), stream.Int(b))))
	}
	seg1 := punct.OnAttr(4, 0, punct.Eq(stream.Int(1)))
	var got []punct.Embedded
	tr := exec.Drive(m, exec.Punct(0, set(1, 2)), exec.Punct(0, punct.NewEmbedded(seg1)), exec.Punct(1, set(1, 3)),
		exec.Call(func(tr *exec.Trace) {
			if _, _, recorded := m.align.promised[0].State(); len(*recorded) != 1 {
				inRun{t}.Fatalf("input 0 records %v, want its set alone", *recorded)
			}
			got = puncts(tr.Out[0])
		}))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if len(got) != 1 || !got[0].Pattern.Equal(seg1) {
		t.Fatalf("before EOS the merge asserted %v, want [seg=1]", got)
	}
}

func TestMergeGenericCoveredByWatermark(t *testing.T) {
	m := newMerge(2)
	// Input 1's ts watermark ≥ the pattern's ts bound covers it by
	// implication, with no equal pattern ever asserted there.
	old := punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(5))).With(2, punct.Le(stream.TimeMicros(500))))
	var got []punct.Embedded
	exec.Drive(m, exec.Punct(1, tsPunct(1000)), exec.Punct(0, old),
		exec.Call(func(tr *exec.Trace) { got = puncts(tr.Out[0]) }))
	if len(got) != 1 || !got[0].Pattern.Equal(old.Pattern) {
		t.Fatalf("watermark implication must cover the generic pattern: %v", got)
	}
}

func TestMergePassThroughAndGuards(t *testing.T) {
	m := newMerge(2)
	var passed []stream.Tuple
	tr := exec.Drive(m,
		exec.Tuples(0, traffic(1, 1, 10, 50)),
		exec.Tuples(1, traffic(2, 1, 20, 60)),
		outAt(&passed),
		exec.Feedback(0, assumedOnSegment(2)),
		exec.Tuples(0, traffic(2, 2, 30, 61)),
		exec.Tuples(1, traffic(3, 2, 30, 62)))
	if got := len(passed); got != 2 {
		t.Fatalf("pass-through broke: %d tuples", got)
	}
	got := tr.Out[0].Tuples()
	if len(got) != 3 || got[2].At(0).AsInt() != 3 {
		t.Fatalf("disclaimed segment 2 must be suppressed: %v", got)
	}
	// Feedback fanned to every partition.
	for in := 0; in < 2; in++ {
		if fb := tr.Sent[in]; len(fb) != 1 {
			t.Fatalf("input %d got %d feedbacks, want 1", in, len(fb))
		}
	}
}

// TestPunctuationSteadyStateZeroAlloc pins the punctuation path that does
// no work at 0 allocs/op: at a fan-in, an arrival that does not advance the
// aligned frontier, with no pattern pending; at an aggregate, progress that
// closes no window. Reading the punctuation (punct.Pattern.Progress) is all
// either does.
func TestPunctuationSteadyStateZeroAlloc(t *testing.T) {
	for name, o := range map[string]exec.Operator{
		"merge":     newMerge(4),
		"pace":      &Pace{Schema: trafficSchema, K: 4, TsAttr: 2, Tolerance: 100},
		"aggregate": minuteAvg(FeedbackExploit, false),
	} {
		t.Run(name, func(t *testing.T) {
			ctx := &punctCounter{}
			if err := o.Open(ctx); err != nil {
				t.Fatal(err)
			}
			// Every input at ts=100: a fan-in emits that frontier, once. Its
			// last input stays there, pinning it, while the others run ahead;
			// the aggregate's first minute stays open throughout.
			k := len(o.InSchemas())
			for i := 0; i < k; i++ {
				if err := o.ProcessPunct(i, tsPunct(100), ctx); err != nil {
					t.Fatal(err)
				}
			}
			emitted := ctx.n
			probes := []punct.Embedded{tsPunct(5_000), tsPunct(6_000), tsPunct(7_000)}
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				if err := o.ProcessPunct(i%max(1, k-1), probes[i%len(probes)], ctx); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state punctuation allocates %.1f allocs/op, want 0", allocs)
			}
			if ctx.n != emitted {
				t.Fatalf("the probes advance nothing, yet %d punctuations were emitted", ctx.n-emitted)
			}
		})
	}
}

// TestSplitRouteZeroAlloc pins the split's tuple hot path at 0 allocs/op.
func TestSplitRouteZeroAlloc(t *testing.T) {
	s := &Split{Schema: trafficSchema, N: 4, Key: []int{0}, Mode: FeedbackExploit}
	sink := discardCtx{}
	if err := s.Open(sink); err != nil {
		t.Fatal(err)
	}
	tuples := []stream.Tuple{traffic(1, 1, 10, 50), traffic(2, 1, 20, 51), traffic(3, 1, 30, 52)}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.ProcessTuple(0, tuples[i%len(tuples)], sink); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("split routing allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSplitRoutingGolden pins Value.Hash and the partition Split routes each
// key to at N = 2, 3 and 4. A restored cut of a Parallel plan assumes every
// key still lands in the partition that holds its state, so a change to the
// hash must not move any of these.
func TestSplitRoutingGolden(t *testing.T) {
	one := func(v stream.Value) []stream.Value { return []stream.Value{v} }
	cases := []struct {
		key    []stream.Value
		hashes []uint64 // Value.Hash of each key attribute
		parts  [3]int   // partition at N = 2, 3, 4
	}{
		{one(stream.Null), []uint64{0xaf64724c8602eb6e}, [3]int{1, 1, 3}},
		{one(stream.Int(0)), []uint64{0xa8c7f832281a39c5}, [3]int{0, 2, 2}},
		{one(stream.Int(1)), []uint64{0x89cd31291d2aefa4}, [3]int{1, 1, 1}},
		{one(stream.Int(-1)), []uint64{0x8cf51a8bfca3883d}, [3]int{0, 0, 2}},
		{one(stream.Int(255)), []uint64{0x9016b196e349a31a}, [3]int{1, 0, 3}},
		{one(stream.Int(1 << 40)), []uint64{0xa01e7d3223323b1a}, [3]int{1, 2, 3}},
		{one(stream.Int(math.MaxInt64)), []uint64{0x8cf59a8bfca461bd}, [3]int{0, 0, 2}},
		{one(stream.Int(math.MinInt64)), []uint64{0xa8c7783228196045}, [3]int{0, 0, 2}},
		{one(stream.Float(0)), []uint64{0xa8c7f832281a39c5}, [3]int{0, 2, 2}},
		{one(stream.Float(math.Copysign(0, -1))), []uint64{0xa8c7f832281a39c5}, [3]int{0, 2, 2}},
		{one(stream.Float(42)), []uint64{0xff3add6b3789daef}, [3]int{0, 2, 0}},
		{one(stream.Float(-3)), []uint64{0xf5b33f6b1d3bea7f}, [3]int{0, 0, 0}},
		{one(stream.Float(2.5)), []uint64{0xa8ba2032280e4061}, [3]int{0, 2, 2}},
		{one(stream.Float(-0.1)), []uint64{0x4fa11cc0eec3ea44}, [3]int{1, 1, 1}},
		{one(stream.Float(math.NaN())), []uint64{0x8d1818291ff72671}, [3]int{0, 1, 2}},
		{one(stream.Float(math.Inf(1))), []uint64{0xaab1293229b9b0f8}, [3]int{1, 2, 1}},
		{one(stream.Float(math.Inf(-1))), []uint64{0xaab1a93229ba8a78}, [3]int{1, 1, 1}},
		{one(stream.Float(1e300)), []uint64{0x8b8f4de62cb5842b}, [3]int{0, 0, 0}},
		{one(stream.String_("")), []uint64{0xcbf29ce484222325}, [3]int{0, 0, 2}},
		{one(stream.String_("a")), []uint64{0xaf63dc4c8601ec8c}, [3]int{1, 2, 1}},
		{one(stream.String_("segment-17")), []uint64{0xd3316b64c85be9d5}, [3]int{0, 2, 2}},
		{one(stream.String_("héllo")), []uint64{0xa35ff71f960240e0}, [3]int{1, 2, 1}},
		{one(stream.TimeMicros(0)), []uint64{0xa8c7f832281a39c5}, [3]int{0, 2, 2}},
		{one(stream.TimeMicros(1_700_000_000_000_000)), []uint64{0xbafebb4f81e42c33}, [3]int{0, 2, 0}},
		{one(stream.TimeMicros(-5)), []uint64{0x714ed5a03c1c29b9}, [3]int{0, 0, 2}},
		{one(stream.Bool(false)), []uint64{0xa8c7f832281a39c5}, [3]int{0, 2, 2}},
		{one(stream.Bool(true)), []uint64{0x89cd31291d2aefa4}, [3]int{1, 1, 1}},
		{[]stream.Value{stream.Int(7), stream.String_("a")}, []uint64{0x4bd7a317074c5b62, 0xaf63dc4c8601ec8c}, [3]int{1, 1, 1}},
		{[]stream.Value{stream.String_("a"), stream.Int(7)}, []uint64{0xaf63dc4c8601ec8c, 0x4bd7a317074c5b62}, [3]int{1, 2, 1}},
		{[]stream.Value{stream.Float(2.5), stream.TimeMicros(9)}, []uint64{0xa8ba2032280e4061, 0x81a3697174a540ac}, [3]int{0, 1, 2}},
		{[]stream.Value{stream.Null, stream.Null}, []uint64{0xaf64724c8602eb6e, 0xaf64724c8602eb6e}, [3]int{1, 2, 3}},
	}
	for _, c := range cases {
		var fields []stream.Field
		var key []int
		for i, v := range c.key {
			if got := v.Hash(); got != c.hashes[i] {
				t.Errorf("%v: Hash = %#x, want %#x", v, got, c.hashes[i])
			}
			kind := v.Kind
			if kind == stream.KindNull {
				kind = stream.KindInt
			}
			fields = append(fields, stream.F(fmt.Sprintf("k%d", i), kind))
			key = append(key, i)
		}
		for j, n := range []int{2, 3, 4} {
			s := &Split{Schema: stream.MustSchema(fields...), N: n, Key: key}
			ctx := &portCtx{port: -1}
			if err := s.Open(ctx); err != nil {
				t.Fatal(err)
			}
			if err := s.ProcessTuple(0, stream.NewTuple(c.key...), ctx); err != nil {
				t.Fatal(err)
			}
			if ctx.port != c.parts[j] {
				t.Errorf("key %v at N=%d: routed to %d, want %d", c.key, n, ctx.port, c.parts[j])
			}
		}
	}
}

// portCtx is discardCtx remembering the port of the last tuple emitted.
type portCtx struct {
	discardCtx
	port int
}

func (c *portCtx) EmitTo(port int, _ stream.Tuple) { c.port = port }

// discardCtx is a no-op exec.Context for allocation measurements (a
// recording sink would itself allocate) and for calls no plan makes.
type discardCtx struct{}

func (discardCtx) Emit(stream.Tuple)               {}
func (discardCtx) EmitTo(int, stream.Tuple)        {}
func (discardCtx) EmitBatch([]stream.Tuple)        {}
func (discardCtx) EmitBatchTo(int, []stream.Tuple) {}
func (discardCtx) EmitPunct(punct.Embedded)        {}
func (discardCtx) EmitPunctTo(int, punct.Embedded) {}
func (discardCtx) SendFeedback(int, core.Feedback) {}
func (discardCtx) ShutdownUpstream(int)            {}
func (discardCtx) NumInputs() int                  { return 1 }

// punctCounter is discardCtx counting the punctuation emitted.
type punctCounter struct {
	discardCtx
	n int
}

func (c *punctCounter) EmitPunct(punct.Embedded) { c.n++ }

func TestSplitDemandedFeedbackUnanimity(t *testing.T) {
	s := newSplit(3, 0)
	// An unpinned demand (timestamp range) relays upstream only once every
	// partition has demanded a covering subset — which a merge fan-out
	// produces naturally.
	fb := core.NewDemanded(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(5000))))
	var partial []core.Feedback
	tr := exec.Drive(s, exec.Feedback(0, fb), exec.Feedback(1, fb),
		exec.Call(func(tr *exec.Trace) { partial = tr.Sent[0] }),
		exec.Feedback(2, fb))
	if got := partial; len(got) != 0 {
		t.Fatalf("partial demand must be withheld: %v", got)
	}
	if got := tr.Sent[0]; len(got) != 1 || got[0].Intent != core.Demanded {
		t.Fatalf("unanimous demand must forward upstream once: %v", got)
	}
}

// TestSplitSinglePartitionIsNeutral pins Parallel(1, ...) feedback
// neutrality: with one partition, pinned-or-unanimous degenerates to
// immediate relay for every intent.
func TestSplitSinglePartitionIsNeutral(t *testing.T) {
	s := &Split{Schema: trafficSchema, N: 1, Key: []int{0}, Mode: FeedbackExploit, Propagate: true}
	tr := exec.Drive(s, exec.Feedback(0,
		core.NewDemanded(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(5000)))),
		core.NewAssumed(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(9000)))),
		core.NewDesired(punct.OnAttr(4, 2, punct.Ge(stream.TimeMicros(9000))))))
	if got := tr.Sent[0]; len(got) != 3 {
		t.Fatalf("n=1 split must relay every feedback immediately: %v", got)
	}
}

// TestMergeAlignmentStateBounded pins the long-running-stream bound:
// generic patterns carrying a timestamp bound are pruned from per-input
// state once the input's watermark passes them, and pending patterns are
// dropped once the emitted merged frontier subsumes them.
func TestMergeAlignmentStateBounded(t *testing.T) {
	m := newMerge(2)
	in := inRun{t}
	var script []exec.Script
	// Per-group closure patterns [seg=k, *, ts≤k·100, *]: multi-attribute,
	// so the generic path holds them.
	for k := int64(0); k < 50; k++ {
		pat := punct.OnAttr(4, 0, punct.Eq(stream.Int(k))).With(2, punct.Le(stream.TimeMicros(k*100)))
		script = append(script, exec.Punct(0, punct.NewEmbedded(pat)))
	}
	late := punct.OnAttr(4, 0, punct.Eq(stream.Int(1))).With(2, punct.Le(stream.TimeMicros(100)))
	script = append(script,
		exec.Call(func(*exec.Trace) {
			if got := recordedPatterns(m.align.promised[0]); got != 50 {
				in.Fatalf("asserted = %d, want 50", got)
			}
			if got := len(m.align.pending); got != 50 {
				in.Fatalf("pending = %d, want 50", got)
			}
		}),
		// Input 0's watermark passes every bound: its asserted list drains.
		exec.Punct(0, tsPunct(10_000)),
		exec.Call(func(*exec.Trace) {
			if got := recordedPatterns(m.align.promised[0]); got != 0 {
				in.Fatalf("asserted after watermark = %d, want 0", got)
			}
		}),
		// Input 1 catches up: the merged frontier ≤10000 is emitted and
		// subsumes every pending pattern — dropped, not re-emitted.
		exec.Punct(1, tsPunct(10_000)),
		exec.Call(func(tr *exec.Trace) {
			if got := len(m.align.pending); got != 0 {
				in.Fatalf("pending after frontier = %d, want 0", got)
			}
			got := puncts(tr.Out[0])
			if len(got) != 1 || !got[0].Pattern.Equal(tsPunct(10_000).Pattern) {
				in.Fatalf("only the subsuming frontier may be emitted: %v", got)
			}
		}),
		// A late duplicate below the frontier neither re-pends nor re-asserts.
		exec.Punct(0, punct.NewEmbedded(late)),
		exec.Call(func(*exec.Trace) {
			if recordedPatterns(m.align.promised[0]) != 0 || len(m.align.pending) != 0 {
				in.Fatalf("late covered pattern must not accumulate state: asserted=%d pending=%d",
					recordedPatterns(m.align.promised[0]), len(m.align.pending))
			}
		}))
	if tr := exec.Drive(m, script...); tr.Err != nil {
		t.Fatal(tr.Err)
	}
}

// §4.4: state kept for feedback must not accumulate. A demanded pattern a
// partition sent is moot once punctuation covers it, like any guard.
func TestSplitDemandedPatternsExpire(t *testing.T) {
	s := newSplit(2, 0)
	var empty, last int
	script := []exec.Script{exec.Call(func(*exec.Trace) { empty = len(captureBlob(inRun{t}, s)) })}
	for round := int64(1); round <= 20; round++ {
		window := punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(round*minute)))
		for port := 0; port < 2; port++ {
			script = append(script, exec.Feedback(port, core.Feedback{Intent: core.Demanded, Pattern: window, Origin: "agg", Seq: round}))
		}
		script = append(script, exec.Punct(0, tsPunct(round*minute)))
	}
	script = append(script, exec.Call(func(*exec.Trace) {
		for port, table := range s.Holds(core.Demanded) {
			if n := table.Active(); n != 0 {
				t.Errorf("partition %d still holds %d demanded patterns punctuation has covered", port, n)
			}
		}
		last = len(captureBlob(inRun{t}, s))
	}))
	if tr := exec.Drive(s, script...); tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if n := last; n > empty {
		t.Errorf("capture is %d bytes after every pattern expired, %d when empty", n, empty)
	}
}

// What a fan-out has relayed upstream is what its tables hold, and they are
// feedback state like any: a pattern relays once per round while punctuation
// expires the last, and the capture does not grow.
func TestRelayedSetExpires(t *testing.T) {
	check := func(t *testing.T, o interface {
		exec.Operator
		snapshot.Stater
	}) {
		var after1 int
		var script []exec.Script
		for round := int64(1); round <= 20; round++ {
			window := punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(round*minute)))
			for port := 0; port < 2; port++ {
				script = append(script, exec.Feedback(port, core.Feedback{Intent: core.Assumed, Pattern: window, Origin: "viewer", Seq: round}))
			}
			script = append(script, exec.Call(func(tr *exec.Trace) {
				t := inRun{t}
				if n := len(tr.Sent[0]); n != int(round) {
					t.Fatalf("round %d: %d patterns relayed upstream, want one per round", round, n)
				}
				if round == 1 {
					after1 = len(captureBlob(t, o))
				}
				// Later timestamps and sequence numbers encode a few bytes longer;
				// a set that keeps every key grows by a key's length per round.
				if n := len(captureBlob(t, o)); n > 2*after1 {
					t.Fatalf("round %d: capture grew to %d bytes from %d with one live pattern", round, n, after1)
				}
			}), exec.Punct(0, tsPunct(round*minute)))
		}
		if tr := exec.Drive(o, script...); tr.Err != nil {
			t.Fatal(tr.Err)
		}
	}
	t.Run("split", func(t *testing.T) {
		s := newSplit(2, 0)
		check(t, s)
		if n := activeGuards(s.Tables()); n != 0 {
			t.Errorf("tables hold %d patterns after all expired", n)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		d := &Duplicate{Schema: trafficSchema, N: 2, Mode: FeedbackExploit, Propagate: true}
		check(t, d)
		if n := activeGuards(d.Tables()); n != 0 {
			t.Errorf("tables hold %d patterns after all expired", n)
		}
	})
}

// activeGuards counts the live entries of tables.
func activeGuards(tables []*core.GuardTable) int {
	n := 0
	for _, table := range tables {
		n += table.Active()
	}
	return n
}

// Each port's tables fold a punctuation once, when the runtime emits it on
// that port: a fan-out that sends one exact-value punctuation on n ports
// leaves it once in every guarded table's tracker, and a punctuation emitted
// on one port reaches that port's tables alone. (An empty table keeps no
// pattern, so each port first holds a guard the punctuation does not cover.)
func TestFanOutFoldsEachPunctuationOnce(t *testing.T) {
	eq := func(v int64) punct.Embedded { return punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(v)))) }
	guard := core.NewAssumed(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(minute))))
	for _, o := range []interface {
		exec.Operator
		Tables() []*core.GuardTable
		Emitted(int, punct.Embedded)
	}{newSplit(3, 0), &Duplicate{Schema: trafficSchema, N: 3, Mode: FeedbackExploit}} {
		script := []exec.Script{exec.Feedback(0, guard), exec.Feedback(1, guard), exec.Feedback(2, guard), exec.Punct(0, eq(7))}
		if tr := exec.Drive(o, script...); tr.Err != nil {
			t.Fatal(tr.Err)
		}
		var guarded []*core.GuardTable
		for _, table := range o.Tables() {
			if table.Active() > 0 {
				guarded = append(guarded, table)
			}
		}
		if len(guarded) != 3 {
			t.Fatalf("%s: %d tables hold the guard, want one per port", o.Name(), len(guarded))
		}
		for i, table := range guarded {
			if n := recordedPatterns(tracker(table)); n != 1 {
				t.Errorf("%s: table %d holds the punctuation %d times, want once", o.Name(), i, n)
			}
		}
		o.Emitted(0, eq(8))
		for i, table := range guarded {
			want := 1
			if i == 0 {
				want = 2
			}
			if n := recordedPatterns(tracker(table)); n != want {
				t.Errorf("%s: after a punctuation on port 0, table %d records %d patterns, want %d", o.Name(), i, n, want)
			}
		}
	}
}

// tracker reads a guard table's expiry tracker, which the table does not
// export.
func tracker(table *core.GuardTable) *punct.Scheme {
	return (*punct.Scheme)(reflect.ValueOf(table).Elem().FieldByName("scheme").UnsafePointer())
}

// recordedPatterns counts the patterns a tracker records.
func recordedPatterns(s *punct.Scheme) int {
	_, _, recorded := s.State()
	return len(*recorded)
}

// Folding an emitted punctuation that releases nothing allocates nothing,
// however many held tables it reaches.
func TestEmittedPunctFoldAllocs(t *testing.T) {
	s := newSplit(2, 0)
	live := punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(minute)))
	tr := exec.Drive(s, exec.Feedback(0, core.NewAssumed(live)), exec.Feedback(1, core.NewAssumed(live)))
	if len(tr.Sent[0]) != 1 {
		t.Fatalf("relayed %v, want the unanimous pattern once", tr.Sent[0])
	}
	early := punct.NewEmbedded(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(0))))
	if n := testing.AllocsPerRun(100, func() {
		s.Emitted(0, early)
		s.Emitted(1, early)
	}); n != 0 {
		t.Errorf("folding a punctuation that releases nothing allocates %.1f per run, want 0", n)
	}
	if n := activeGuards(s.Tables()); n != 2 {
		t.Errorf("a punctuation that covers no guard left %d of the 2 guards", n)
	}
}
