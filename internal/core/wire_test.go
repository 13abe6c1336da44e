package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

// An intent byte other than the three the paper defines is refused: decoded,
// it would reach a responder that treats whatever is not desired or demanded
// as assumed, and purge state on it.
func TestDecodeFeedbackRefusesUndefinedIntent(t *testing.T) {
	fb := NewDemanded(punct.OnAttr(2, 0, punct.Eq(stream.Int(1))))
	for intent := 0; intent < 256; intent++ {
		enc := fb.AppendBinary(nil)
		enc[0] = byte(intent)
		got, _, err := DecodeFeedback(enc)
		if ok := intent <= int(Demanded); ok != (err == nil) || ok && got.Intent != Intent(intent) {
			t.Errorf("intent byte %d: decoded %v, error %v", intent, got, err)
		}
	}
}

// FuzzDecodeFeedback feeds hostile bytes to DecodeFeedback, the decoder a
// remote feedback frame reaches: it never panics, sizes nothing by a count
// beyond the bytes received, its intent is one of ¬, ? and !, and an
// accepted feedback re-encodes to bytes
// that decode and re-encode identically. Installed, it suppresses exactly
// what its pattern matches, on tuples of its arity and of one more; a table
// of another arity refuses it.
func FuzzDecodeFeedback(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 16; i++ {
		ps := make([]punct.Pred, 1+rng.Intn(4))
		for j := range ps {
			ps[j] = randPred(rng)
		}
		fb := Feedback{Intent: Intent(rng.Intn(3)), Pattern: punct.NewPattern(ps...), Origin: "viewer", Hops: rng.Intn(3), Seq: rng.Int63()}
		f.Add(append(fb.AppendBinary(nil), byte(rng.Intn(256)), byte(rng.Intn(256))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fb, rest, err := DecodeFeedback(data)
		if err != nil {
			return
		}
		if fb.Intent != Assumed && fb.Intent != Desired && fb.Intent != Demanded {
			t.Fatalf("decoded undefined intent %d", fb.Intent)
		}
		enc := fb.AppendBinary(nil)
		again, tail, err := DecodeFeedback(enc)
		p := fb.Pattern
		if p.Arity() > len(data) || len(fb.Origin) > len(data) || err != nil || len(tail) != 0 || !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatalf("%v (arity %d from %d bytes) does not round-trip: %v", fb, p.Arity(), len(data), err)
		}
		pool := []stream.Value{stream.Null, stream.Int(0), stream.Float(math.NaN()), stream.String_("")}
		for i := 0; i < p.Arity(); i++ {
			pr := p.Pred(i)
			pool = append(append(pool, pr.Val, pr.Hi), pr.Set...)
		}
		own, other := NewGuardTable(p.Arity()), NewGuardTable(p.Arity()+1)
		own.Install(fb)
		if other.Install(fb) {
			t.Fatalf("%v installed into an arity-%d table", fb, p.Arity()+1)
		}
		for k := 0; k < 16; k++ {
			vals := make([]stream.Value, p.Arity()+k%2)
			for i := range vals {
				if len(rest) > 0 {
					vals[i], rest = pool[int(rest[0])%len(pool)], rest[1:]
				}
			}
			tp := stream.Tuple{Values: vals, Seq: int64(k)}
			if own.Suppress(tp) != p.Matches(tp) || other.Suppress(tp) {
				t.Fatalf("%v: Suppress(%v) = %v, Matches %v", fb, tp, !p.Matches(tp), p.Matches(tp))
			}
		}
	})
}
