package op

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// flushCtx records what an aggregate emits, per tuple.
type flushCtx struct {
	discardCtx
	tuples []stream.Tuple
}

func (c *flushCtx) Emit(t stream.Tuple) { c.tuples = append(c.tuples, t) }

// flushBatchCtx adds the batched emit a live runner provides.
type flushBatchCtx struct{ *flushCtx }

func (c flushBatchCtx) EmitBatch(ts []stream.Tuple) { c.tuples = append(c.tuples, ts...) }

// captureBlob takes a capture of a in the given mode and encodes it.
func captureBlob(t *testing.T, a *Aggregate, mode snapshot.CaptureMode) []byte {
	t.Helper()
	c, err := a.CaptureState(mode)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCap(t, c)
}

// dueReference is the flush written plainly: every state entry with
// wid ≤ lastFull, ordered by (wid, key), as result tuples, less those an
// output guard covers.
func dueReference(a *Aggregate, lastFull int64) []stream.Tuple {
	type entry struct {
		key string
		g   *aggGroup
	}
	var due []entry
	for k, g := range a.state {
		if g.wid <= lastFull {
			due = append(due, entry{k, g})
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].g.wid != due[j].g.wid {
			return due[i].g.wid < due[j].g.wid
		}
		return due[i].key < due[j].key
	})
	var out []stream.Tuple
results:
	for _, e := range due {
		vals := append([]stream.Value(nil), e.g.groupVals...)
		vals = append(vals, a.wstartValue(e.g.wid), stream.Float(a.value(e.g)))
		t := stream.NewTuple(vals...)
		for _, gd := range a.guardsOut.Guards() {
			if gd.Pattern.Matches(t) {
				continue results
			}
		}
		out = append(out, t)
	}
	return out
}

// TestAggregateFlushEqualsReference drives random streams — tumbling and
// sliding windows, punctuation at random cadences (most closing nothing),
// tuples for windows already flushed, group- and value-shape feedback
// purges, full and full+delta snapshot round trips into a fresh twin — and
// at every punctuation compares what the aggregate emits with dueReference
// over the state it held. The early return for "no window due" must never
// hold a result back: not after a restore, and not after a purge removed
// the smallest open window.
func TestAggregateFlushEqualsReference(t *testing.T) {
	const slide = int64(1_000_000)
	// Coverage: results emitted, results for a window flushed before, and
	// punctuations that closed nothing over open state.
	var flushed, late, idle int
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := window.Tumbling(slide)
		if rng.Intn(2) == 0 {
			spec = window.Sliding(int64(2+rng.Intn(2))*slide, slide)
		}
		kind := []core.AggKind{core.AggMax, core.AggCount, core.AggAvg}[rng.Intn(3)]
		build := func() *Aggregate {
			return &Aggregate{In: trafficSchema, Kind: kind, TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
				Window: spec, Mode: FeedbackExploit}
		}
		rec := &flushCtx{}
		var ctx exec.Context = rec
		if seed%2 == 0 {
			ctx = flushBatchCtx{rec}
		}
		a := build()
		if err := a.Open(ctx); err != nil {
			t.Fatal(err)
		}
		restore := func(blobs ...[]byte) {
			twin := build()
			if err := twin.Open(ctx); err != nil {
				t.Fatal(err)
			}
			applyChain(t, twin, blobs[0], blobs[1:]...)
			a = twin
		}
		var wm int64
		var base []byte // a full capture awaiting its delta
		prevFull := int64(-1)
		for ev := 0; ev < 120; ev++ {
			when := fmt.Sprintf("seed %d event %d", seed, ev)
			switch r := rng.Intn(20); {
			case r < 11: // a tuple, sometimes for a window already flushed
				ts := wm + int64(rng.Intn(int(5*slide))) - 2*slide
				if ts < 0 {
					ts = 0
				}
				tu := traffic(int64(rng.Intn(6)), 0, ts, float64(rng.Intn(100)))
				if err := a.ProcessTuple(0, tu, ctx); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			case r < 16: // punctuation; small steps close nothing
				wm += int64(rng.Intn(int(slide))) * int64(rng.Intn(3)) / 2
				lastFull := spec.LastFullWindow(wm)
				want := dueReference(a, lastFull)
				for _, g := range a.state {
					if g.wid <= prevFull {
						late++
					}
				}
				if len(want) == 0 && len(a.state) > 0 {
					idle++
				}
				prevFull = max(prevFull, lastFull)
				rec.tuples = rec.tuples[:0]
				if err := a.ProcessPunct(0, tsPunct(wm), ctx); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if len(want) != len(rec.tuples) || (len(want) > 0 && !reflect.DeepEqual(want, rec.tuples)) {
					t.Fatalf("%s: punctuation ts ≤ %d (windows through %d) emitted\n  %v\nwant\n  %v",
						when, wm, lastFull, rec.tuples, want)
				}
				for k, g := range a.state {
					if g.wid <= lastFull {
						t.Fatalf("%s: entry %q of window %d outlived the flush through %d", when, k, g.wid, lastFull)
					}
				}
				flushed += len(want)
			case r < 17: // group-shape feedback: purge a segment
				f := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(int64(rng.Intn(6))))))
				if err := a.ProcessFeedback(0, f, ctx); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			case r < 18: // value-shape feedback: purges on the monotone aggregates
				f := core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(float64(1+rng.Intn(90))))))
				if err := a.ProcessFeedback(0, f, ctx); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			case r < 19: // full capture into a fresh twin
				restore(captureBlob(t, a, snapshot.CaptureFull))
				base = nil
			default: // full capture now, its delta at the next such event
				if base == nil {
					base = captureBlob(t, a, snapshot.CaptureFull)
				} else {
					restore(base, captureBlob(t, a, snapshot.CaptureDelta))
					base = nil
				}
			}
		}
		// EOS flushes whatever is left, in the same order.
		want := dueReference(a, 1<<62)
		rec.tuples = rec.tuples[:0]
		if err := a.ProcessEOS(0, ctx); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(rec.tuples) || (len(want) > 0 && !reflect.DeepEqual(want, rec.tuples)) {
			t.Fatalf("seed %d: EOS emitted %v, want %v", seed, rec.tuples, want)
		}
		if len(a.state) != 0 {
			t.Fatalf("seed %d: %d entries left after EOS", seed, len(a.state))
		}
	}
	if flushed == 0 || late == 0 || idle == 0 {
		t.Fatalf("scripts covered %d results, %d of them late, and %d idle punctuations; all must occur", flushed, late, idle)
	}
	t.Logf("%d results, %d late, %d idle punctuations", flushed, late, idle)
}

// TestAggregateApplyDeltaReopensFlush: a delta can bring in a window older
// than any the operator holds, so ApplyDelta must forget the smallest-open-
// window bound an earlier flush computed — or the next punctuation would
// take that window for not yet open and skip it.
func TestAggregateApplyDeltaReopensFlush(t *testing.T) {
	const second = int64(1_000_000)
	build := func() *Aggregate {
		return &Aggregate{In: trafficSchema, Kind: core.AggCount, TsAttr: 2, ValAttr: -1, GroupBy: []int{0},
			Window: window.Tumbling(second), Mode: FeedbackExploit}
	}
	rec := &flushCtx{}
	a := build()
	if err := a.Open(rec); err != nil {
		t.Fatal(err)
	}
	_ = a.ProcessTuple(0, traffic(1, 0, 5*second+1, 50), rec) // window 5
	base := captureBlob(t, a, snapshot.CaptureFull)
	_ = a.ProcessTuple(0, traffic(1, 0, 2*second+1, 50), rec) // window 2, late
	delta := captureBlob(t, a, snapshot.CaptureDelta)

	twin := build()
	if err := twin.Open(rec); err != nil {
		t.Fatal(err)
	}
	applyChain(t, twin, base)
	if err := twin.ProcessPunct(0, tsPunct(second), rec); err != nil { // closes window 0: scans, learns 5 is the smallest
		t.Fatal(err)
	}
	if err := twin.ApplyDelta(snapshot.NewDecoder(delta)); err != nil {
		t.Fatal(err)
	}
	if err := twin.ProcessPunct(0, tsPunct(3*second), rec); err != nil { // closes window 2
		t.Fatal(err)
	}
	want := []stream.Tuple{stream.NewTuple(stream.Int(1), stream.TimeMicros(2*second), stream.Float(1))}
	if !reflect.DeepEqual(rec.tuples, want) {
		t.Fatalf("after the delta, the flush through window 2 emitted %v, want %v", rec.tuples, want)
	}
}
