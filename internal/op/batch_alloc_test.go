package op

import (
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// Zero-allocation pins for the stateful fold and batch-apply paths
// (DESIGN.md §10.5). As in telemetry_alloc_test.go, everything runs against
// discardCtx so only the operator's own allocations are measured.

const allocTestMinute = int64(60_000_000)

func foldAggregate() *Aggregate {
	return &Aggregate{
		In: trafficSchema, Kind: core.AggAvg,
		TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
		Window: window.Tumbling(allocTestMinute),
	}
}

// foldRing returns tuples confined to one tumbling window across nine
// groups, so a warm-up pass creates every state entry the measured loop
// will touch.
func foldRing(n int) []stream.Tuple {
	ring := make([]stream.Tuple, n)
	for i := range ring {
		ring[i] = traffic(int64(i%9), 0, int64(i)*1000, 55)
	}
	return ring
}

// TestAggregateFoldZeroAlloc pins the per-tuple fold at 0 allocs/op once
// the touched (window, group) entries exist — the path bench/'s
// op.agg_fold_ns_per_tuple rung times.
func TestAggregateFoldZeroAlloc(t *testing.T) {
	a := foldAggregate()
	if err := a.Open(discardCtx{}); err != nil {
		t.Fatal(err)
	}
	ring := foldRing(64)
	for _, tu := range ring {
		if err := a.ProcessTuple(0, tu, discardCtx{}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		_ = a.ProcessTuple(0, ring[i%len(ring)], discardCtx{})
		i++
	}); n != 0 {
		t.Fatalf("aggregate fold allocates %.1f per op, want 0", n)
	}
}

// TestAggregateBatchFoldZeroAlloc pins the batched fold (the fused-prefix
// survivor path) at 0 allocs per run of tuples.
func TestAggregateBatchFoldZeroAlloc(t *testing.T) {
	a := foldAggregate()
	if err := a.Open(discardCtx{}); err != nil {
		t.Fatal(err)
	}
	ring := foldRing(64)
	if err := a.ApplyTupleBatch(0, ring, discardCtx{}); err != nil {
		t.Fatal(err) // warm: the window and its groups, the projection scratch
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = a.ApplyTupleBatch(0, ring, discardCtx{})
	}); n != 0 {
		t.Fatalf("aggregate batch fold allocates %.1f per batch, want 0", n)
	}
}

// TestAggregateFlushSlabAllocs pins the window flush: one value slab per
// flushSlabTuples results and nothing else once the run scratch has grown —
// no per-result tuple, no work list, no sort, and nothing for the window
// itself, which is the one closed before — and nothing at all for a
// punctuation that closes no window.
func TestAggregateFlushSlabAllocs(t *testing.T) {
	const groups = 1000
	slabs := float64((groups + flushSlabTuples - 1) / flushSlabTuples)
	ctx := discardCtx{}
	a := foldAggregate()
	if err := a.Open(ctx); err != nil {
		t.Fatal(err)
	}
	wid := int64(0)
	fill := func() {
		for g := int64(0); g < groups; g++ {
			_ = a.ProcessTuple(0, traffic(g, 0, wid*allocTestMinute, 55), ctx)
		}
	}
	fill()
	a.flushThrough(wid, ctx) // warm: run scratch, and the window the next fills reuse
	// A flush needs state to flush, so measure fill+flush against fill
	// and a close that emits nothing (fill builds its tuples).
	refill := testing.AllocsPerRun(10, func() {
		wid++
		fill()
		a.store.closeFirst()
	})
	cycle := testing.AllocsPerRun(10, func() {
		wid++
		fill()
		a.flushThrough(wid, ctx)
	})
	if got := cycle - refill; got > slabs {
		t.Fatalf("flushing %d results allocates %.0f, want at most %.0f slabs", groups, got, slabs)
	}
	if st := a.Stats(); st.OpenGroups != 0 || st.Out == 0 {
		t.Fatalf("flush left %d groups open after %d results", st.OpenGroups, st.Out)
	}
	fill()
	if n := testing.AllocsPerRun(100, func() { a.flushThrough(wid-1, ctx) }); n != 0 {
		t.Fatalf("a flush that closes nothing allocates %.1f, want 0", n)
	}
}

// TestAggregateInsertAllocs pins the insert path — the tuple that opens a
// group, which over a wide key space is nearly every tuple: 8192 groups the
// operator has never seen, into a window whose predecessor has closed,
// allocate nothing. No key string, no group, no map bucket: the closed
// window's slab, arena and index are the new window's.
func TestAggregateInsertAllocs(t *testing.T) {
	const groups = 8192
	a := foldAggregate()
	if err := a.Open(discardCtx{}); err != nil {
		t.Fatal(err)
	}
	wid := int64(0)
	tu := traffic(0, 0, 0, 55) // one tuple rewritten in place: the aggregate keeps none of it
	cycle := func() {
		tu.Values[2] = stream.TimeMicros(wid * allocTestMinute)
		for g := int64(0); g < groups; g++ {
			tu.Values[0] = stream.Int(wid*groups + g)
			_ = a.ProcessTuple(0, tu, discardCtx{})
		}
		if got := a.Stats().OpenGroups; got != groups {
			t.Fatalf("window %d holds %d groups, want %d", wid, got, groups)
		}
		a.store.closeFirst()
		wid++
	}
	cycle() // the first window grows its slab, arena and index; the rest reuse them
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Fatalf("inserting %d new groups into a recycled window allocates %.0f, want 0", groups, n)
	}
}

// TestSplitBatchApplyZeroAlloc pins Split's partition-hash batch path at 0
// allocs per run.
func TestSplitBatchApplyZeroAlloc(t *testing.T) {
	s := &Split{Schema: trafficSchema, N: 4, Key: []int{0}, Mode: FeedbackExploit}
	if err := s.Open(discardCtx{}); err != nil {
		t.Fatal(err)
	}
	ring := foldRing(64)
	if err := s.ApplyTupleBatch(0, ring, discardCtx{}); err != nil {
		t.Fatal(err) // warm: sub-batch scratch sized and grown
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = s.ApplyTupleBatch(0, ring, discardCtx{})
	}); n != 0 {
		t.Fatalf("split batch apply allocates %.1f per batch, want 0", n)
	}
}

// TestJoinBatchGuardZeroAlloc pins the Join batch wrapper and its hoisted
// guard probe at 0 allocs: a fully suppressed run must touch neither table.
// (A run that stores or emits allocates per retained tuple by design; the
// pin isolates the batching machinery itself.)
func TestJoinBatchGuardZeroAlloc(t *testing.T) {
	j := &Join{
		Left: trafficSchema, Right: trafficSchema,
		LeftKeys: []int{0, 2}, RightKeys: []int{0, 2},
		LeftTs: 2, RightTs: 2, Mode: FeedbackExploit,
	}
	if err := j.Open(discardCtx{}); err != nil {
		t.Fatal(err)
	}
	ring := make([]stream.Tuple, 64)
	for i := range ring {
		ring[i] = traffic(3, 0, int64(i)*1000, 55)
	}
	j.guardsIn[0].Install(core.NewAssumed(punct.OnAttr(4, 0, punct.Eq(stream.Int(3)))))
	if n := testing.AllocsPerRun(200, func() {
		_ = j.ApplyTupleBatch(0, ring, discardCtx{})
	}); n != 0 {
		t.Fatalf("join batch apply (suppressed run) allocates %.1f per batch, want 0", n)
	}
	if got := j.Stats().SuppressedIn; got == 0 {
		t.Fatal("guard did not engage; the pin measured the wrong path")
	}
}
