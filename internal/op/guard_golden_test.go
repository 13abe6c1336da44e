package op

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// The blobs below were captured from these histories at the commit before
// guard tables moved into core.Responder. They pin two things: the same
// history still captures to the same bytes (each operator's pasnap3 blob keeps
// its layout and the tables hold the same guards, hop counts included), and an
// existing blob restores into responder-owned tables and re-encodes unchanged.
const (
	goldenAggregateGuards = "0102000402010a02020000000000000000027ff000000000000002fff000000000000002011402020000000000000000027ff000000000000002fff000000000000006000103010106000006766965776572040e000103000006024000000000000000067669657765720010000103000404010006766965776572001206000103010106000006766965776572040e00010301010e0104000006766965776572001000010300040401000676696577657200120e000a04000400"
	goldenSplitGuards     = "04040001040000000602403c40000000000006766965776572001200010401010e000000067669657765720010000200010401010a00000006766965776572020a020201040000030480ea300006766965776572000e020ec2ac5b352c202a2c202a2c202a5d0008040202"
	goldenSourceGuards    = "0604020001040101020000000473696e6b0202"
)

func goldenFeedback(intent core.Intent, p punct.Pattern, hops int, seq int64) core.Feedback {
	return core.Feedback{Intent: intent, Pattern: p, Origin: "viewer", Hops: hops, Seq: seq}
}

// checkGolden captures st, compares with the golden blob, loads the golden
// blob into twin and compares what twin captures.
func checkGolden(t *testing.T, name, golden string, st, twin snapshot.Stater) {
	t.Helper()
	if got := hex.EncodeToString(captureBlob(t, st, snapshot.CaptureFull)); got != golden {
		t.Fatalf("%s: captured state changed:\n got %s\nwant %s", name, got, golden)
	}
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	dec := snapshot.NewDecoder(want)
	if err := twin.LoadState(dec); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if got := hex.EncodeToString(captureBlob(t, twin, snapshot.CaptureFull)); got != golden {
		t.Fatalf("%s: restored state re-encodes differently:\n got %s\nwant %s", name, got, golden)
	}
}

func TestGuardTableBytesGolden(t *testing.T) {
	t.Run("aggregate", func(t *testing.T) {
		build := func() (*Aggregate, *exec.Harness) {
			a := &Aggregate{In: trafficSchema, Kind: core.AggCount, TsAttr: 2, ValAttr: -1,
				GroupBy: []int{0}, Window: window.Tumbling(minute), Mode: FeedbackExploit}
			return a, exec.NewHarness(a)
		}
		a, h := build()
		h.Tuples(traffic(5, 0, 10, 1), traffic(3, 0, 20, 1), traffic(7, 0, 30, 1), traffic(7, 0, 40, 1), traffic(10, 0, 50, 1))
		h.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(3, 0, punct.Eq(stream.Int(3))), 2, 7))         // group: the pattern pins the prefix
		h.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(3, 2, punct.Ge(stream.Float(2))), 0, 8))       // value on COUNT: one derived pin
		h.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(-1))), 0, 9)) // window-bound
		h.Tuples(traffic(3, 0, 60, 1), traffic(7, 0, 70, 1))                                                   // both pinned shut
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
		twin, _ := build()
		checkGolden(t, "aggregate", goldenAggregateGuards, a, twin)
		if twin.guardsOut.Active() != 3 || twin.guardsPrefix.Active() != 3 {
			t.Fatalf("restored tables hold %d output and %d input guards, want 3 and 3",
				twin.guardsOut.Active(), twin.guardsPrefix.Active())
		}
	})
	t.Run("split", func(t *testing.T) {
		build := func() (*Split, *exec.Harness) {
			s := &Split{Schema: trafficSchema, N: 2, Key: []int{0}, Mode: FeedbackExploit, Propagate: true}
			return s, exec.NewHarness(s)
		}
		s, h := build()
		pinned := punct.OnAttr(4, 0, punct.Eq(stream.Int(5)))
		home := s.route(traffic(5, 0, 0, 0))
		h.Feedback(home, goldenFeedback(core.Assumed, pinned, 1, 5))                                         // key-pinned: relayed at once
		h.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(4, 3, punct.Ge(stream.Float(28.25))), 0, 9)) // unpinned, one partition only: held
		h.Feedback(1, goldenFeedback(core.Demanded, punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(400_000))), 0, 7))
		h.Feedback(1-home, goldenFeedback(core.Assumed, punct.OnAttr(4, 0, punct.Eq(stream.Int(7))), 0, 8)) // pinned elsewhere: held
		h.Tuples(traffic(5, 0, 10, 1), traffic(6, 0, 20, 30), traffic(7, 0, 30, 1), traffic(8, 0, 40, 1))
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
		if n := len(h.SentFeedback(0)); n != 1 {
			t.Fatalf("relayed %d patterns, want the key-pinned one", n)
		}
		twin, _ := build()
		checkGolden(t, "split", goldenSplitGuards, s, twin)
		if len(twin.Relayed()) != 1 {
			t.Fatalf("restored relayed set %v, want the key-pinned pattern", twin.Relayed())
		}
	})
	t.Run("source", func(t *testing.T) {
		build := func() (*exec.SliceSource, *exec.Harness) {
			src := exec.NewSliceSource("src", trafficSchema,
				traffic(1, 0, 10, 1), traffic(2, 0, 20, 1), traffic(1, 0, 30, 1), traffic(2, 0, 40, 1))
			src.FeedbackAware, src.BatchSize = true, 3
			return src, exec.NewSourceHarness(src)
		}
		src, h := build()
		h.Feedback(0, core.Feedback{Intent: core.Assumed, Pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(1))), Origin: "sink", Hops: 1, Seq: 1})
		if _, err := src.Next(h); err != nil {
			t.Fatal(err)
		}
		twin, _ := build()
		checkGolden(t, "source", goldenSourceGuards, src, twin)
		if twin.Skipped() != 2 {
			t.Fatalf("restored source skipped %d, want 2", twin.Skipped())
		}
	})
}

// goldenMergeState was captured from the history below at the commit before
// Merge's alignment moved into the aligner it shares with Pace: the blob —
// per-input frontiers and asserted patterns, the asserted frontier, the
// pending list, then guards and counters — keeps its bytes, and restores.
const goldenMergeState = "060000000801d00f01000002010401010a0000000000000000f80a01000004010401010a000000010401010e000404904e00010000000090030100000000000000f80a01000002010401010e000404904e000200010401010400000006766965776572020606040206"

func TestMergeStateBytesGolden(t *testing.T) {
	build := func() (*Merge, *exec.Harness) {
		m := &Merge{OpName: "m", Schema: trafficSchema, K: 3, Mode: FeedbackExploit, Propagate: true}
		return m, exec.NewHarness(m)
	}
	m, h := build()
	h.Tuple(0, traffic(1, 1, 10, 50))
	h.Tuple(1, traffic(2, 1, 20, 55))
	h.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(4, 0, punct.Eq(stream.Int(2))), 1, 3))
	h.Tuple(2, traffic(2, 2, 30, 60)) // suppressed
	h.Punct(0, tsPunct(1000))
	h.Punct(1, tsPunct(700))
	h.Punct(2, tsPunct(200))                                                   // aligned: ≤200
	h.Punct(0, punct.NewEmbedded(punct.OnAttr(4, 1, punct.Le(stream.Int(4))))) // a second attribute's frontier, one input only
	seg5 := punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(5))))
	h.Punct(0, seg5)
	h.Punct(1, seg5)
	// Covered by input 0's frontier (≤1000), not by input 1's: stays pending.
	h.Punct(1, punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(7))).With(2, punct.Le(stream.TimeMicros(5000)))))
	h.EOS(2) // releases ≤700 and segment 5
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if got := h.OutPuncts(0); len(got) != 3 || len(m.align.pending) != 1 {
		t.Fatalf("history emitted %v with %d pending, want 3 and 1", got, len(m.align.pending))
	}
	twin, _ := build()
	checkGolden(t, "merge", goldenMergeState, m, twin)
}
