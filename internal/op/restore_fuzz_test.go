package op

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// operatorStaters is how many of stateRows are operators.
const operatorStaters = 8

// FuzzOperatorRestore feeds arbitrary bytes to every operator's derived
// restore, LoadState on an opened operator. It returns an error, or leaves a
// state that is whole: no larger than the bytes could describe — its capture
// takes no more bytes than the blob it was loaded from, and the aggregate
// holds no more slots, tombstones included — and whose capture loads into a
// twin that encodes the same bytes again. Nothing may panic.
//
// The seeds are each operator's golden blob, whole and cut short; the join
// after a match and a purge by watermark; the aggregate along a history — a
// purge and the purged group carried again (the tombstone path), windows
// closed and re-opened — and a blob that lists one group twice under a guard
// that covers it.
func FuzzOperatorRestore(f *testing.F) {
	var opens []func() snapshot.Stater
	for i, row := range stateRows()[:operatorStaters] {
		golden, err := hex.DecodeString(row.golden)
		if err != nil {
			f.Fatal(err)
		}
		opens = append(opens, func() snapshot.Stater {
			st := row.open()
			if err := st.(exec.Operator).Open(&flushCtx{}); err != nil {
				f.Fatal(err)
			}
			return st
		})
		f.Add(uint8(i), golden)
		f.Add(uint8(i), golden[:len(golden)/2])
		if row.name == "join" {
			st := row.open()
			var blob []byte
			exec.Drive(st.(exec.Operator), append(row.feed(f, st),
				exec.Tuples(1, traffic(4, 8, 300, 60)), // matches the left entry
				exec.Tuples(1, traffic(6, 8, 400, 60)),
				exec.Punct(0, tsPunct(350)), // purges right 4 by watermark
				captureAt(f, st, &blob))...)
			f.Add(uint8(i), blob)
		}
	}

	buildAgg := func() snapshot.Stater {
		a := &Aggregate{In: trafficSchema, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
			Window: window.Sliding(2*minute, minute), Mode: FeedbackExploit}
		if err := a.Open(&flushCtx{}); err != nil {
			f.Fatal(err)
		}
		return a
	}
	rec := &flushCtx{}
	a := buildAgg().(*Aggregate)
	for i, seg := range []int64{5, 2, 8, 2} {
		_ = a.ProcessTuple(0, traffic(seg, 0, minute+int64(i), float64(10*i)), rec)
	}
	// On AVG, value feedback leaves an output guard only.
	_ = a.ProcessFeedback(0, core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(25)))), rec)
	base := captureBlob(f, a)
	a.Purge(core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(2)))), core.ResponsePlan{}) // the pins it returns are dropped
	_ = a.ProcessTuple(0, traffic(2, 0, minute+9, 5), rec)
	_ = a.ProcessTuple(0, traffic(6, 0, minute+10, 7), rec)
	revived := captureBlob(f, a)
	// Windows 0 and 1 close, a late tuple opens them again, and a purge leaves
	// an input guard.
	_ = a.ProcessPunct(0, tsPunct(2*minute), rec)
	_ = a.ProcessTuple(0, traffic(3, 0, minute+11, 9), rec)
	_ = a.ProcessFeedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3)))), rec)
	_ = a.ProcessTuple(0, traffic(4, 0, 3*minute, 11), rec)
	reopened := captureBlob(f, a)

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
	twice.PutInt(1)
	twice.PutFeedback(core.NewAssumed(punct.AllWild(3)))
	for i := 0; i < 1+7; i++ {
		twice.PutInt64(0)
	}
	dup, _ := twice.Bytes()

	history := uint8(len(opens))
	opens = append(opens, buildAgg)
	for _, b := range [][]byte{base, revived, reopened, dup} {
		f.Add(history, b)
		f.Add(history, b[:len(b)/2])
	}

	// sizes measures a restored state: its capture, and the aggregate's
	// slots, tombstones included, which encode nothing.
	sizes := func(t *testing.T, st snapshot.Stater) (blob, slots int) {
		if a, ok := st.(*Aggregate); ok {
			for _, w := range a.store.wins {
				slots += len(w.groups)
			}
		}
		return len(captureBlob(t, st)), slots
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		open := opens[int(which)%len(opens)]
		st := open()
		if err := st.LoadState(snapshot.NewDecoder(data)); err != nil {
			return
		}
		if blob, slots := sizes(t, st); blob > len(data) || slots > len(data) {
			t.Fatalf("%d bytes restored into a %d-byte capture and %d slots", len(data), blob, slots)
		}
		first := captureBlob(t, st)
		twin, dec := open(), snapshot.NewDecoder(first)
		if err := twin.LoadState(dec); err != nil || dec.Remaining() != 0 {
			t.Fatalf("the capture of a restored operator does not load: %v, %d bytes left (restored from %x)", err, dec.Remaining(), data)
		}
		if second := captureBlob(t, twin); !bytes.Equal(first, second) {
			t.Fatalf("a capture re-loaded encodes differently:\n  %x\n  %x\n(restored from %x)", first, second, data)
		}
	})
}
