package op

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// FuzzAggregateRestore feeds arbitrary bytes to the aggregate's snapshot
// decoders: LoadState on an opened operator, ApplyDelta on one that has
// loaded a good base. Either returns an error, or leaves a store that is
// whole: no larger than the bytes could describe (nothing is sized from a
// length prefix), and whose full capture loads into a twin that encodes the
// same bytes again — once it has been through a load itself: a load drops
// what the cut's guards cover among the groups the blob carries (§6.3), so
// the store a full blob leaves is settled and the store a delta lands in is
// one load away. Nothing may panic. The seeds are the blobs of a real
// capture chain — a full one, a delta that records a purge and carries the
// purged group again (the tombstone path), a delta over a window closed and
// re-opened — and a full blob that lists one group twice under a guard that
// covers it.
func FuzzAggregateRestore(f *testing.F) {
	rec := &flushCtx{}
	build := func(t testing.TB) *Aggregate {
		a := &Aggregate{In: trafficSchema, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
			Window: window.Sliding(2*minute, minute), Mode: FeedbackExploit}
		if err := a.Open(rec); err != nil {
			t.Fatal(err)
		}
		return a
	}
	slots := func(a *Aggregate) (n int) { // tombstones too
		for _, w := range a.store.wins {
			n += len(w.groups)
		}
		return n
	}
	a := build(f)
	for i, seg := range []int64{5, 2, 8, 2} {
		_ = a.ProcessTuple(0, traffic(seg, 0, minute+int64(i), float64(10*i)), rec)
	}
	// On AVG, value feedback leaves an output guard only.
	_ = a.ProcessFeedback(0, core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(25)))), rec)
	base := captureBlob(f, a, snapshot.CaptureFull)
	a.Purge(core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(2)))), core.ResponsePlan{}) // the pins it returns are dropped
	_ = a.ProcessTuple(0, traffic(2, 0, minute+9, 5), rec)
	_ = a.ProcessTuple(0, traffic(6, 0, minute+10, 7), rec)
	revived := captureBlob(f, a, snapshot.CaptureDelta)
	// Windows 0 and 1 close, a late tuple opens them again, and a purge leaves
	// an input guard.
	_ = a.ProcessPunct(0, tsPunct(2*minute), rec)
	_ = a.ProcessTuple(0, traffic(3, 0, minute+11, 9), rec)
	_ = a.ProcessFeedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3)))), rec)
	_ = a.ProcessTuple(0, traffic(4, 0, 3*minute, 11), rec)
	reopened := captureBlob(f, a, snapshot.CaptureDelta)

	twice := snapshot.NewEncoder()
	twice.PutInt64(aggLayout)
	twice.PutInt(1)
	twice.PutInt64(7)
	twice.PutInt(2)
	for _, count := range []int64{1, 3} {
		twice.PutValues([]stream.Value{stream.Int(9)})
		twice.PutInt64(count)
		for i := 0; i < 3; i++ {
			twice.PutFloat64(4)
		}
	}
	// One output guard that covers it — the one slot is purged once — no input
	// guards, and the counters.
	snapshot.PutGuardsView(twice, []core.Feedback{core.NewAssumed(punct.AllWild(3))})
	for i := 0; i < 1+7; i++ {
		twice.PutInt64(0)
	}
	dup, _ := twice.Bytes()

	for _, b := range [][]byte{base, dup} {
		f.Add(b, false)
		f.Add(b[:len(b)/2], false)
	}
	for _, b := range [][]byte{revived, reopened} {
		f.Add(b, true)
		f.Add(b[:len(b)-3], true)
	}

	f.Fuzz(func(t *testing.T, data []byte, delta bool) {
		a, held := build(t), 0
		var err error
		if delta {
			if err := a.LoadState(snapshot.NewDecoder(base)); err != nil {
				t.Fatal(err)
			}
			held = slots(a)
			err = a.ApplyDelta(snapshot.NewDecoder(data))
		} else {
			err = a.LoadState(snapshot.NewDecoder(data))
		}
		if err != nil {
			return
		}
		if n := slots(a); n > held+len(data) {
			t.Fatalf("%d bytes restored into %d slots (%d held before)", len(data), n, held)
		}
		reload := func(from *Aggregate) (*Aggregate, []byte) {
			blob := captureBlob(t, from, snapshot.CaptureFull)
			twin, dec := build(t), snapshot.NewDecoder(blob)
			if err := twin.LoadState(dec); err != nil || dec.Remaining() != 0 {
				t.Fatalf("the full capture of a restored operator does not load: %v, %d bytes left (restored from %x)", err, dec.Remaining(), data)
			}
			return twin, blob
		}
		if delta {
			a, _ = reload(a)
		}
		twin, first := reload(a)
		if second := captureBlob(t, twin, snapshot.CaptureFull); !bytes.Equal(first, second) {
			t.Fatalf("a full capture re-loaded encodes differently:\n  %x\n  %x\n(restored from %x)", first, second, data)
		}
	})
}
