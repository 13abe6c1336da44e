package op

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// TestAggStoreKeyIdentity: the store tells groups apart by sameKey and finds
// them by hashKey without ever building Tuple.AppendKey's encoding, so both
// must agree with it — same key exactly when the encodings are equal bytes,
// and then the same hash. Kinds are mixed within a column and payloads chosen
// to collide across kinds (Int 1, Time 1, Bool true, Float 1; +0 and -0; two
// NaNs), which is where the three could drift apart.
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
	rng := rand.New(rand.NewSource(1))
	cols := []int{0, 1, 2}
	same, differ := 0, 0
	for i := 0; i < 20_000; i++ {
		k := 1 + rng.Intn(3)
		a, b := make([]stream.Value, k), make([]stream.Value, k)
		for c := range a {
			a[c] = pool[rng.Intn(len(pool))]
			b[c] = pool[rng.Intn(len(pool))]
			if rng.Intn(3) > 0 {
				b[c] = a[c]
			}
		}
		want := bytes.Equal(stream.NewTuple(a...).AppendKey(nil, cols[:k]), stream.NewTuple(b...).AppendKey(nil, cols[:k]))
		if got := sameKey(a, b); got != want {
			t.Fatalf("sameKey(%v, %v) = %v, but their encoded keys are equal: %v", a, b, got, want)
		}
		if want && hashKey(a) != hashKey(b) {
			t.Fatalf("%v and %v are one group but hash to %x and %x", a, b, hashKey(a), hashKey(b))
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
