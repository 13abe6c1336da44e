package op

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// TestAggregateChangelogBounded: a run that stops checkpointing must not
// accumulate changelog forever. The aggregate's is bounded by construction —
// dirty slots belong to open windows, a closed window leaves one watermark
// behind, a purge record is forgotten when its window closes — so after
// 10 000 windows opened, purged in and closed with no capture in between its
// footprint is at most the live groups plus a constant, and the next delta,
// applied to the last base, still reassembles the live state exactly.
func TestAggregateChangelogBounded(t *testing.T) {
	a := minuteAvg(FeedbackExploit, false)
	h := exec.NewHarness(a)
	h.Tuples(traffic(1, 1, 10*1_000_000, 40), traffic(2, 1, 20*1_000_000, 30))
	base := captureBlob(t, a, snapshot.CaptureFull)

	const windows = 10_000
	for w := int64(0); w < windows; w++ {
		for seg := int64(0); seg < 3; seg++ {
			h.Tuples(traffic(seg, 1, w*minute+seg, 50))
		}
		if w%1000 == 0 { // a purge record per thousand windows, each forgotten at its window's close
			h.Tuples(traffic(100+w, 1, w*minute, 50))
			h.Feedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(100+w)))))
		}
		if w > 0 {
			h.Punct(0, tsPunct(w*minute-1)) // closes window w-1
		}
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if got := a.Stats().Purged; got != windows/1000 {
		t.Fatalf("%d groups purged, want %d", got, windows/1000)
	}
	live := a.Stats().OpenGroups
	footprint := len(a.store.purged)
	for _, w := range a.store.wins {
		footprint += len(w.dirty)
	}
	if live != 3 || footprint > live+1 {
		t.Fatalf("after %d windows with no capture: %d live groups, changelog footprint %d (want at most live + 1)", windows, live, footprint)
	}
	if n := len(a.store.wins) + len(a.store.spare); n > 1+aggSpareWindows {
		t.Fatalf("%d windows held, want at most one open and %d spare", n, aggSpareWindows)
	}

	c, err := a.CaptureState(snapshot.CaptureDelta)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Delta {
		t.Fatal("a bounded changelog never collapses: the capture after a long gap must still be a delta")
	}
	twin := minuteAvg(FeedbackExploit, false)
	if ht := exec.NewHarness(twin); ht.Err() != nil {
		t.Fatal(ht.Err())
	}
	applyChain(t, twin, base, encodeCap(t, c))
	if got, want := fullBlob(t, twin), fullBlob(t, a); !bytes.Equal(got, want) {
		t.Fatalf("base + delta differs from a full capture of the live state (%dB vs %dB)", len(got), len(want))
	}
}

// TestJoinChangelogBounded: the same bound for Join, which used to need a cap
// (MaxChangelog) to have one. The join's changelog is one watermark per side
// plus notes on baseline entries — purged one by one, or matched — that are
// forgotten as the watermark passes them, so 10 000 punctuated windows
// inserted, matched, purged by feedback and purged by punctuation with no
// capture in between leave at most the live entries plus a constant behind,
// and the next delta, applied to the last base, reassembles the live state.
func TestJoinChangelogBounded(t *testing.T) {
	j := deltaJoin()
	j.Impatient = true
	h := exec.NewHarness(j)
	const held = 50 // left entries the baseline holds, timestamps 40..89
	for k := int64(0); k < held; k++ {
		h.Tuple(0, lrTuple(1000+k, 40+k, 1))
	}
	base := captureBlob(t, j, snapshot.CaptureFull)

	// Every baseline entry is matched, one is purged by feedback: a note each,
	// until the watermark passes them.
	for k := int64(0); k < held; k++ {
		h.Tuple(1, lrTuple(1000+k, 95, 2))
	}
	h.Feedback(0, core.NewAssumed(punct.OnAttr(5, 2, punct.Eq(stream.Float(1))).With(0, punct.Eq(stream.Int(1007)))))
	if n := len(j.store.sides[0].matched) + len(j.store.sides[0].purged); n != held+1 {
		t.Fatalf("%d notes on the left side, want %d matched and 1 purged", n, held+1)
	}

	const windows = 10_000
	for w := int64(1); w <= windows; w++ {
		ts := w * 100
		for k := int64(0); k < 3; k++ {
			h.Tuple(0, lrTuple(k, ts+k, 1))
			h.Tuple(1, lrTuple(k, ts+k+10, 2)) // matches the left entry of this window, and older ones still held
		}
		if w%1000 == 0 { // a one-by-one purge per thousand windows, forgotten when the watermark passes
			h.Tuple(0, lrTuple(100+w, ts, 3))
			h.Feedback(0, core.NewAssumed(punct.OnAttr(5, 0, punct.Eq(stream.Int(100+w)))))
		}
		h.Punct(0, ts3Punct(ts-1)) // purges the right entries of window w-1
		h.Punct(1, ts3Punct(ts-1)) // and the left ones
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	st := j.Stats()
	if st.PurgedByFeedback != 1+windows/1000 {
		t.Fatalf("%d entries purged by feedback, want %d", st.PurgedByFeedback, 1+windows/1000)
	}
	live, footprint := st.LeftEntries+st.RightEntries, 0
	for _, side := range j.store.all() {
		footprint += len(side.purged) + len(side.matched)
	}
	if live != 6 || footprint > live+1 {
		t.Fatalf("after %d windows with no capture: %d live entries, changelog footprint %d (want at most live + 1)", windows, live, footprint)
	}

	c, err := j.CaptureState(snapshot.CaptureDelta)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Delta {
		t.Fatal("a bounded changelog never collapses: the capture after a long gap must still be a delta")
	}
	twin := deltaJoin()
	twin.Impatient = true
	if ht := exec.NewHarness(twin); ht.Err() != nil {
		t.Fatal(ht.Err())
	}
	applyChain(t, twin, base, encodeCap(t, c))
	if got, want := fullBlob(t, twin), fullBlob(t, j); !bytes.Equal(got, want) {
		t.Fatalf("base + delta differs from a full capture of the live state (%dB vs %dB)", len(got), len(want))
	}
}
