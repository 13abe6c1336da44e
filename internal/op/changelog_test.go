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

// TestJoinChangelogCap: the same bound for Join, summed over both sides.
func TestJoinChangelogCap(t *testing.T) {
	j := deltaJoin()
	j.MaxChangelog = 4
	h := exec.NewHarness(j)

	h.Tuple(0, lrTuple(1, 1000, 1))
	if _, err := j.CaptureState(snapshot.CaptureFull); err != nil {
		t.Fatal(err)
	}
	if j.chlogDirty[0] == nil {
		t.Fatal("tracking not enabled after first capture")
	}

	for k := int64(0); k < 6; k++ {
		h.Tuple(0, lrTuple(k, 2000, 2))
		h.Tuple(1, lrTuple(k, 2000, 3))
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	for side := 0; side < 2; side++ {
		if j.chlogDirty[side] != nil || j.chlogDead[side] != nil {
			t.Fatalf("side %d changelog not collapsed past the cap", side)
		}
	}

	cap1, err := j.CaptureState(snapshot.CaptureDelta)
	if err != nil {
		t.Fatal(err)
	}
	if cap1.Delta {
		t.Fatal("capped join answered a delta; must upgrade to full")
	}

	twin := deltaJoin()
	ht := exec.NewHarness(twin)
	if ht.Err() != nil {
		t.Fatal(ht.Err())
	}
	applyChain(t, twin, encodeCap(t, cap1))
	if got, want := fullBlob(t, twin), fullBlob(t, j); !bytes.Equal(got, want) {
		t.Fatalf("restored state differs from live state (%dB vs %dB)", len(got), len(want))
	}
}
