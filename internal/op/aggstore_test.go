package op

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// TestAggStoreKeyIdentity: the store tells groups apart by sameKey and finds
// them by hashKey without ever building Tuple.AppendKey's encoding, so both
// must agree with it — same key exactly when the encodings are equal bytes,
// and then the same hash. Kinds are mixed within a column and payloads chosen
// to collide across kinds (Int 1, Time 1, Bool true, Float 1; +0 and -0; two
// NaNs), which is where the three could drift apart. A fold hashes and
// matches a key where it lies in the tuple, a restore and a stored key as a
// projected row: over 1–3 key columns of a wider row, in any order, the two
// must hash and match alike.
func TestAggStoreKeyIdentity(t *testing.T) {
	pool := []stream.Value{
		stream.Null,
		stream.Int(0), stream.Int(1), stream.Int(-1), stream.Int(1 << 40),
		stream.TimeMicros(0), stream.TimeMicros(1),
		stream.Bool(false), stream.Bool(true),
		stream.Float(0), stream.Float(math.Copysign(0, -1)), stream.Float(1), stream.Float(1.5),
		stream.Float(math.NaN()), stream.Float(math.Float64frombits(0x7ff8000000000001)),
		stream.String_(""), stream.String_("1"), stream.String_("a"), stream.String_("a;"), stream.String_("ab"),
		{Kind: stream.KindInt, I: 1, F: 7, S: "stray fields the kind does not use"},
	}
	const width = 4
	rng := rand.New(rand.NewSource(1))
	same, differ := 0, 0
	for i := 0; i < 20_000; i++ {
		cols := rng.Perm(width)[:1+rng.Intn(3)]
		ident := identCols(len(cols))
		ra, rb := make([]stream.Value, width), make([]stream.Value, width)
		for c := range ra {
			ra[c] = pool[rng.Intn(len(pool))]
			rb[c] = pool[rng.Intn(len(pool))]
			if rng.Intn(3) > 0 {
				rb[c] = ra[c]
			}
		}
		ta, tb := stream.NewTuple(ra...), stream.NewTuple(rb...)
		a, b := ta.AppendProjected(nil, cols), tb.AppendProjected(nil, cols)
		want := bytes.Equal(ta.AppendKey(nil, cols), tb.AppendKey(nil, cols))
		if got := sameKey(a, b, ident); got != want {
			t.Fatalf("sameKey(%v, %v) = %v, but their encoded keys are equal: %v", a, b, got, want)
		}
		if got := sameKey(a, rb, cols); got != want {
			t.Fatalf("key %v against row %v at %v in place: same = %v, projected: %v", a, rb, cols, got, want)
		}
		if h, p := hashKey(ra, cols), hashKey(a, ident); h != p {
			t.Fatalf("row %v at %v hashes to %x in place and %x projected", ra, cols, h, p)
		}
		if want && hashKey(a, ident) != hashKey(b, ident) {
			t.Fatalf("%v and %v are one group but hash to %x and %x", a, b, hashKey(a, ident), hashKey(b, ident))
		}
		if want {
			same++
		} else {
			differ++
		}
	}
	if same < 1000 || differ < 1000 {
		t.Fatalf("%d equal pairs and %d unequal: the generator covers too little", same, differ)
	}
}

// TestAggregateRestoreThenFoldEqualsUninterrupted: a restored group is hashed
// from its decoded key, a folded tuple's group in place; the two must meet.
// Half a stream — two group columns in reverse order, late tuples, windows
// closing — folds into one operator, whose capture is restored into a fresh
// one that folds the rest. Every result and the final state bytes must equal
// those of one operator that folded the whole stream.
func TestAggregateRestoreThenFoldEqualsUninterrupted(t *testing.T) {
	type step struct {
		t     stream.Tuple
		punct *punct.Embedded
	}
	rng := rand.New(rand.NewSource(7))
	var script []step
	for i := int64(0); i < 4000; i++ {
		ts := i * (minute / 1000)
		if rng.Intn(16) == 0 {
			ts -= int64(rng.Intn(3)) * minute / 10
		}
		script = append(script, step{t: traffic(rng.Int63n(40), rng.Int63n(3), ts, float64(rng.Intn(800))/10)})
		if i%250 == 249 {
			e := tsPunct(i*(minute/1000) - minute/2)
			script = append(script, step{punct: &e})
		}
	}
	build := func(rec *flushCtx) *Aggregate {
		a := &Aggregate{In: trafficSchema, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3, GroupBy: []int{1, 0},
			Window: window.Tumbling(minute)}
		if err := a.Open(rec); err != nil {
			t.Fatal(err)
		}
		return a
	}
	feed := func(a *Aggregate, rec *flushCtx, steps []step) {
		for _, s := range steps {
			var err error
			if s.punct != nil {
				err = a.ProcessPunct(0, *s.punct, rec)
			} else {
				err = a.ProcessTuple(0, s.t, rec)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	whole := &flushCtx{}
	live := build(whole)
	feed(live, whole, script)
	wantBytes := captureBlob(t, live)

	halves := &flushCtx{}
	cut := len(script)/2 + 17 // inside a window
	first := build(halves)
	feed(first, halves, script[:cut])
	if n := first.Stats().OpenGroups; n < 40 {
		t.Fatalf("the cut holds %d groups: the restore carries too little", n)
	}
	twin := build(halves)
	loadBlob(t, twin, captureBlob(t, first))
	feed(twin, halves, script[cut:])
	if !bytes.Equal(captureBlob(t, twin), wantBytes) {
		t.Error("restored and folded on, the state encodes to other bytes than the uninterrupted run's")
	}
	if err := live.ProcessEOS(0, whole); err != nil {
		t.Fatal(err)
	}
	if err := twin.ProcessEOS(0, halves); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(halves.tuples, whole.tuples) {
		t.Fatalf("restored and folded on, %d results differ from the uninterrupted run's %d", len(halves.tuples), len(whole.tuples))
	}
}

// TestAggregateCaptureOwnsItsValues: a capture is encoded on another
// goroutine after the barrier has released, by which time the windows it was
// taken from may have closed and their slabs and arenas be holding other
// groups. One capture, encoded at once and again after four more windows have
// been filled and closed through the same recycled memory, must encode to the
// same bytes.
func TestAggregateCaptureOwnsItsValues(t *testing.T) {
	a := minuteAvg(FeedbackExploit, false)
	fill := func(wid int64) exec.Script {
		var s exec.Script
		for seg := int64(0); seg < 40; seg++ {
			s = append(s, exec.Tuples(0, traffic(1000*wid+seg, 1, wid*minute+seg, float64(10*wid+seg)))...)
		}
		return s
	}
	var c snapshot.Capture
	encode := func() []byte {
		enc := snapshot.NewEncoder()
		if err := c.Encode(enc); err != nil {
			panic(err)
		}
		blob, _ := enc.Bytes()
		return blob
	}
	var at, after []byte
	spare := 0
	script := []exec.Script{fill(0), exec.Call(func(*exec.Trace) {
		var err error
		if c, err = a.CaptureState(snapshot.CaptureFull); err != nil {
			panic(err)
		}
		at = encode()
	})}
	for wid := int64(1); wid <= 4; wid++ {
		script = append(script, fill(wid),
			exec.Punct(0, tsPunct(wid*minute-1))) // closes window wid-1; window wid+1 will reuse its memory
	}
	script = append(script, exec.Call(func(*exec.Trace) { spare, after = len(a.store.spare), encode() }))
	if tr := exec.Drive(a, script...); tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if spare == 0 || len(at) < 40*4 {
		t.Fatalf("%d windows recycled, capture of 40 groups encodes to %dB: the test exercised nothing", spare, len(at))
	}
	if !bytes.Equal(after, at) {
		t.Fatal("a capture encoded after its windows were recycled differs from the same capture encoded at the cut")
	}
}
