package punct

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// randValue draws a value of a random kind (biased toward the domains
// punctuation actually binds: ints and times).
func randValue(rng *rand.Rand) stream.Value {
	switch rng.Intn(6) {
	case 0:
		return stream.Int(rng.Int63n(1<<40) - (1 << 39))
	case 1:
		return stream.TimeMicros(rng.Int63n(1 << 50))
	case 2:
		return stream.Float(rng.NormFloat64() * 1e6)
	case 3:
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256)) // arbitrary bytes, not just ASCII
		}
		return stream.String_(string(b))
	case 4:
		return stream.Bool(rng.Intn(2) == 0)
	default:
		return stream.Null
	}
}

// randPred draws a predicate over every Op the codec must carry.
func randPred(rng *rand.Rand) Pred {
	switch rng.Intn(10) {
	case 0:
		return Wild
	case 1:
		return Pred{Op: IsNull}
	case 2:
		return Eq(randValue(rng))
	case 3:
		return Ne(randValue(rng))
	case 4:
		return Lt(randValue(rng))
	case 5:
		return Le(randValue(rng))
	case 6:
		return Gt(randValue(rng))
	case 7:
		return Ge(randValue(rng))
	case 8:
		return Range(randValue(rng), randValue(rng))
	default:
		n := rng.Intn(6)
		set := make([]stream.Value, n)
		for i := range set {
			set[i] = randValue(rng)
		}
		return OneOf(set...)
	}
}

// TestPatternWireRoundTrip is the property test for the shared wire
// encoding: every randomly drawn pattern survives
// AppendBinary → UnmarshalBinary structurally intact, and the encoding is
// self-delimiting (two concatenated patterns decode back in order).
func TestPatternWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		arity := 1 + rng.Intn(6)
		preds := make([]Pred, arity)
		for j := range preds {
			preds[j] = randPred(rng)
		}
		p := NewPattern(preds...)
		raw := p.AppendBinary(nil)
		var q Pattern
		if err := q.UnmarshalBinary(raw); err != nil {
			t.Fatalf("iteration %d: unmarshal %s: %v", i, p, err)
		}
		if !p.Equal(q) {
			t.Fatalf("iteration %d: round trip changed pattern: %s -> %s", i, p, q)
		}

		// Self-delimiting: a second pattern appended to the same buffer
		// decodes from the remainder.
		p2 := OnAttr(arity, rng.Intn(arity), Le(stream.Int(int64(i))))
		both := p2.AppendBinary(append([]byte(nil), raw...))
		d1, rest, err := DecodePattern(both)
		if err != nil || !d1.Equal(p) {
			t.Fatalf("iteration %d: first of concatenated pair: %v", i, err)
		}
		d2, rest, err := DecodePattern(rest)
		if err != nil || !d2.Equal(p2) || len(rest) != 0 {
			t.Fatalf("iteration %d: second of concatenated pair: %v (rest=%d)", i, err, len(rest))
		}
	}
}

// TestPatternWireRejectsGarbage checks the decoder fails cleanly instead of
// panicking on malformed input.
func TestPatternWireRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x7f, 0x01},                        // wrong version
		{wireVersion},                       // missing arity
		{wireVersion, 0x02, 200},            // unknown op
		{wireVersion, 0x01, byte(EQ)},       // truncated value
		{wireVersion, 0x01, byte(In), 0x05}, // In-set shorter than declared
		// Huge declared counts must error, not drive a giant allocation.
		{wireVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		{wireVersion, 0x01, byte(In), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for i, raw := range cases {
		var p Pattern
		if err := p.UnmarshalBinary(raw); err == nil {
			t.Errorf("case %d: malformed input %v decoded without error", i, raw)
		}
	}
	// Trailing bytes after a valid pattern must be rejected by Unmarshal.
	raw := AllWild(2).AppendBinary(nil)
	var p Pattern
	if err := p.UnmarshalBinary(append(raw, 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// FuzzDecodePattern feeds hostile bytes to DecodePattern: it never panics,
// sizes nothing by a count beyond the bytes received, and an accepted
// pattern re-encodes to bytes that decode and re-encode identically. Every
// accepted pattern's Compile agrees with its Matches on tuples of its arity
// and of one more, whose values the bytes left pick from the pattern's own
// operands and a few edges.
func FuzzDecodePattern(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		ps := make([]Pred, rng.Intn(5))
		for j := range ps {
			ps[j] = randPred(rng)
		}
		f.Add(append(NewPattern(ps...).AppendBinary(nil), byte(rng.Intn(256)), byte(rng.Intn(256))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, err := DecodePattern(data)
		if err != nil {
			return
		}
		pool := []stream.Value{stream.Null, stream.Int(0), stream.Float(math.NaN()), stream.String_("")}
		for i := 0; i < p.Arity(); i++ {
			pr := p.Pred(i)
			if len(pr.Set) > len(data) {
				t.Fatalf("In-set of %d from %d bytes", len(pr.Set), len(data))
			}
			pool = append(append(pool, pr.Val, pr.Hi), pr.Set...)
		}
		enc := p.AppendBinary(nil)
		q, tail, err := DecodePattern(enc)
		if p.Arity() > len(data) || err != nil || len(tail) != 0 || !bytes.Equal(q.AppendBinary(nil), enc) {
			t.Fatalf("%v (arity %d from %d bytes) does not round-trip: %v", p, p.Arity(), len(data), err)
		}
		c := p.Compile(stream.Schema{})
		b := byteSource(rest)
		for _, n := range []int{p.Arity(), p.Arity() + 1} {
			for k := 0; k < 8; k++ {
				vals := make([]stream.Value, n)
				for i := range vals {
					vals[i] = pool[b.next()%len(pool)]
				}
				if tp := stream.NewTuple(vals...); c.Matches(tp) != p.Matches(tp) {
					t.Fatalf("%v: Compile.Matches(%v) = %v, Matches %v", p, tp, !p.Matches(tp), p.Matches(tp))
				}
			}
		}
	})
}

// TestValueWireRoundTrip pins the stream.Value codec across every kind,
// including the float edge cases the fixed-width encoding must preserve.
func TestValueWireRoundTrip(t *testing.T) {
	vals := []stream.Value{
		stream.Null,
		stream.Int(0), stream.Int(-1), stream.Int(math.MaxInt64), stream.Int(math.MinInt64),
		stream.TimeMicros(1228726800000000),
		stream.Float(0), stream.Float(math.Inf(1)), stream.Float(math.SmallestNonzeroFloat64),
		stream.String_(""), stream.String_("with, comma \"quoted\""),
		stream.Bool(true), stream.Bool(false),
	}
	var buf []byte
	for _, v := range vals {
		buf = v.AppendBinary(buf)
	}
	rest := buf
	for i, want := range vals {
		var got stream.Value
		var err error
		got, rest, err = stream.DecodeValue(rest)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got.Kind != want.Kind || !got.Equal(want) {
			t.Fatalf("value %d: round trip %v -> %v", i, want, got)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}
