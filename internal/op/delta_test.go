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

// encodeCap runs a capture's phase 2 and returns the blob.
func encodeCap(t testing.TB, c snapshot.Capture) []byte {
	t.Helper()
	enc := snapshot.NewEncoder()
	if err := c.Encode(enc); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// fullBlob serializes an operator's complete state.
func fullBlob(t *testing.T, st snapshot.Stater) []byte {
	t.Helper()
	enc := snapshot.NewEncoder()
	if err := snapshot.EncodeCapture(st, enc); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// applyChain loads base then deltas into a freshly opened twin.
func applyChain(t *testing.T, to snapshot.Stater, base []byte, deltas ...[]byte) {
	t.Helper()
	dec := snapshot.NewDecoder(base)
	if err := to.LoadState(dec); err != nil {
		t.Fatalf("load base: %v", err)
	}
	ds, ok := to.(interface {
		ApplyDelta(*snapshot.Decoder) error
	})
	if !ok {
		t.Fatal("twin has no ApplyDelta")
	}
	for i, d := range deltas {
		dec := snapshot.NewDecoder(d)
		if err := ds.ApplyDelta(dec); err != nil {
			t.Fatalf("apply delta %d: %v", i, err)
		}
		if dec.Remaining() != 0 {
			t.Fatalf("delta %d left %d bytes unread", i, dec.Remaining())
		}
	}
}

// TestAggregateDeltaCapture: a base capture and three deltas — covering group
// mutation and creation, a feedback purge inside an open window, a window
// closed by punctuation, and late tuples that re-open it before the next
// capture and again after it — reassemble into a state byte-identical to a
// direct full serialization, and equal to the plain-map model's.
func TestAggregateDeltaCapture(t *testing.T) {
	a := minuteAvg(FeedbackExploit, false)
	h := exec.NewHarness(a)
	m := newAggModel(a)
	tuples := func(ts ...stream.Tuple) {
		for _, tu := range ts {
			m.fold(tu)
		}
		h.Tuples(ts...)
	}
	var blobs [][]byte
	var cuts []modelCut
	capture := func(mode snapshot.CaptureMode) {
		t.Helper()
		c, err := a.CaptureState(mode)
		if err != nil {
			t.Fatal(err)
		}
		if c.Delta != (mode == snapshot.CaptureDelta) {
			t.Fatalf("capture %d: Delta = %v", len(blobs), c.Delta)
		}
		blobs = append(blobs, encodeCap(t, c))
		cuts = append(cuts, m.cut())
	}
	tuples(
		traffic(1, 1, 10*1_000_000, 40),
		traffic(2, 1, 20*1_000_000, 30),
		traffic(3, 1, 40*1_000_000, 55),
	)
	capture(snapshot.CaptureFull)

	// Interval 1: mutate one group, create another, purge a third.
	tuples(
		traffic(1, 2, 30*1_000_000, 60),
		traffic(4, 1, 50*1_000_000, 70),
	)
	purge := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3))))
	if m.feedback(purge) != 1 {
		t.Fatal("the model purged nothing")
	}
	h.Feedback(0, purge)
	capture(snapshot.CaptureDelta)
	if len(blobs[1]) >= len(blobs[0]) {
		t.Fatalf("delta (%dB) not smaller than base (%dB) for a 2-group change over 3", len(blobs[1]), len(blobs[0]))
	}

	// Interval 2: close the first window — its groups are emitted and
	// dropped — then a late tuple opens it again.
	m.flush(a.Window.LastFullWindow(2 * minute))
	h.Punct(0, tsPunct(2*minute))
	tuples(
		traffic(5, 1, 130*1_000_000, 45),
		traffic(2, 3, 25*1_000_000, 35),
	)
	capture(snapshot.CaptureDelta)

	// Interval 3: another late tuple for the window closed before the
	// previous capture.
	tuples(traffic(6, 1, 35*1_000_000, 65))
	capture(snapshot.CaptureDelta)
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	m.check(t, "live")

	twin := minuteAvg(FeedbackExploit, false)
	ht := exec.NewHarness(twin)
	if ht.Err() != nil {
		t.Fatal(ht.Err())
	}
	applyChain(t, twin, blobs[0], blobs[1:]...)
	if got, want := fullBlob(t, twin), fullBlob(t, a); !bytes.Equal(got, want) {
		t.Fatalf("reassembled state differs from live state (%dB vs %dB)", len(got), len(want))
	}
	m.restore(twin, cuts)
	m.check(t, "twin")
	if n := twin.Stats().OpenGroups; n != 3 {
		t.Fatalf("twin holds %d groups, want 3 (two of them in the re-opened window)", n)
	}
}

var (
	deltaL = stream.MustSchema(stream.F("k", stream.KindInt), stream.F("ts", stream.KindTime), stream.F("v", stream.KindFloat))
	deltaR = stream.MustSchema(stream.F("k", stream.KindInt), stream.F("ts", stream.KindTime), stream.F("w", stream.KindFloat))
)

func deltaJoin() *Join {
	return &Join{OpName: "dj", Left: deltaL, Right: deltaR,
		LeftKeys: []int{0}, RightKeys: []int{0}, LeftTs: 1, RightTs: 1,
		Mode: FeedbackExploit}
}

func lrTuple(k, ts int64, v float64) stream.Tuple {
	return stream.NewTuple(stream.Int(k), stream.TimeMicros(ts), stream.Float(v)).WithSeq(ts)
}

// ts3Punct punctuates ts ≤ us over the 3-attribute join input schema.
func ts3Punct(us int64) punct.Embedded {
	return punct.NewEmbedded(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(us))))
}

// TestJoinDeltaCapture: the join's deltas (inserts, matched flips on the
// opposite side, punctuation purges) reassemble into a state
// byte-identical to a direct full serialization.
func TestJoinDeltaCapture(t *testing.T) {
	j := deltaJoin()
	h := exec.NewHarness(j)
	h.Tuple(0, lrTuple(1, 10, 1))
	h.Tuple(0, lrTuple(2, 20, 2))
	h.Tuple(1, lrTuple(3, 30, 3))
	cap0, err := j.CaptureState(snapshot.CaptureFull)
	if err != nil {
		t.Fatal(err)
	}

	// Interval 1: a right tuple matches key 1 (flipping the stored left
	// entry's matched bit), and a new left key appears.
	h.Tuple(1, lrTuple(1, 40, 4))
	h.Tuple(0, lrTuple(5, 50, 5))
	cap1, err := j.CaptureState(snapshot.CaptureDelta)
	if err != nil {
		t.Fatal(err)
	}
	if !cap1.Delta {
		t.Fatal("second capture is not a delta")
	}

	// Interval 2: right-side punctuation purges old left entries.
	h.Punct(1, ts3Punct(45))
	h.Tuple(0, lrTuple(6, 60, 6))
	cap2, err := j.CaptureState(snapshot.CaptureDelta)
	if err != nil {
		t.Fatal(err)
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}

	base, d1, d2 := encodeCap(t, cap0), encodeCap(t, cap1), encodeCap(t, cap2)
	twin := deltaJoin()
	ht := exec.NewHarness(twin)
	if ht.Err() != nil {
		t.Fatal(ht.Err())
	}
	applyChain(t, twin, base, d1, d2)
	if got, want := fullBlob(t, twin), fullBlob(t, j); !bytes.Equal(got, want) {
		t.Fatalf("reassembled join state differs from live state (%dB vs %dB)", len(got), len(want))
	}
}
