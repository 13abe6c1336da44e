package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// goldenTuples and goldenTupleBytes pin the tuple wire format: the bytes are
// what snapshot.Encoder.PutTuple wrote for these tuples before the layout
// moved here (commit d1c963f), so checkpoint blobs written then still restore.
var goldenTuples = []Tuple{
	NewTuple(Int(-7), TimeMicros(1_700_000_000_123_456), Float(50.25),
		String_("I-84 éast"), Bool(true), Null, String_("")).WithSeq(300),
	{Seq: -1},
	NewTuple(String_(strings.Repeat("x", 200))),
}

const goldenTupleBytes = "0e010d048089818283898506024049200000000000030a492d383420c3a96173740502000300d804" +
	"0001" +
	"0203c801" + "78787878787878787878787878787878787878787878787878787878787878787878787878787878" +
	"78787878787878787878787878787878787878787878787878787878787878787878787878787878" +
	"78787878787878787878787878787878787878787878787878787878787878787878787878787878" +
	"78787878787878787878787878787878787878787878787878787878787878787878787878787878" +
	"78787878787878787878787878787878787878787878787878787878787878787878787878787878" + "00"

func TestTupleBinaryGolden(t *testing.T) {
	var b []byte
	for _, tp := range goldenTuples {
		b = tp.AppendBinary(b)
	}
	if got := hex.EncodeToString(b); got != goldenTupleBytes {
		t.Fatalf("tuple wire format changed:\n got %s\nwant %s", got, goldenTupleBytes)
	}
	for i, want := range goldenTuples {
		var got Tuple
		var err error
		if got, b, err = DecodeTuple(b); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if !got.Equal(want) || got.Seq != want.Seq || got.Arity() != want.Arity() {
			t.Errorf("tuple %d: got %v seq %d, want %v seq %d", i, got, got.Seq, want, want.Seq)
		}
	}
	if len(b) != 0 {
		t.Errorf("%d trailing bytes", len(b))
	}
}

func TestDecodeTuplesRun(t *testing.T) {
	in := []Tuple{
		NewTuple(Int(1), String_("a"), Null).WithSeq(1),
		NewTuple(Null, String_(""), Float(2.5)).WithSeq(2),
		NewTuple(Bool(false), String_(strings.Repeat("k", 5000)), TimeMicros(-9)).WithSeq(3),
	}
	var b []byte
	for _, tp := range in {
		b = tp.AppendBinary(b)
	}
	b = append(b, 0xAA) // what follows the run is handed back untouched
	arena := make([]Value, 9)
	asked := 0
	out, rest, err := DecodeTuples(nil, func(n int) []Value { asked += n; return arena }, b, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if asked != 9 {
		t.Errorf("asked the arena for %d values, want 9 once", asked)
	}
	if len(rest) != 1 || rest[0] != 0xAA {
		t.Errorf("rest = %x, want aa", rest)
	}
	for i := range in {
		if !out[i].Equal(in[i]) || out[i].Seq != in[i].Seq {
			t.Errorf("tuple %d: got %v want %v", i, out[i], in[i])
		}
		// Each tuple is capped to its own values: an append downstream must
		// not write into its neighbour's.
		if cap(out[i].Values) != 3 {
			t.Errorf("tuple %d: cap %d, want 3", i, cap(out[i].Values))
		}
	}
	if &out[0].Values[0] != &arena[0] {
		t.Error("values were not decoded into the caller's arena")
	}

	// Hostile bytes: wrong arity, truncation at every length, bad kinds.
	if _, _, err := DecodeTuples(nil, nil, b, 2, 3); err == nil {
		t.Error("arity mismatch accepted")
	}
	for cut := 0; cut < len(b)-1; cut++ {
		if _, _, err := DecodeTuples(nil, nil, b[:cut], 3, 3); err == nil {
			t.Fatalf("run truncated to %d bytes accepted", cut)
		}
	}
	if _, _, err := DecodeTuple([]byte{0xfe, 0xff, 0xff, 0xff, 0x0f, 1}); err == nil {
		t.Error("arity of 2^31 accepted")
	}
	if _, _, err := DecodeTuple([]byte{2, 99, 0}); err == nil {
		t.Error("unknown value kind accepted")
	}

	// A count the bytes cannot hold is refused before anything is sized from
	// it: the arena is not asked, and with none given nothing is allocated.
	for _, n := range []int{len(b)/5 + 1, 1 << 40, -1} {
		never := func(int) []Value { t.Fatalf("arena asked for a run of %d", n); return nil }
		if _, _, err := DecodeTuples(nil, never, b, 3, n); err == nil {
			t.Errorf("a run of %d tuples accepted from %d bytes", n, len(b))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeTuples(nil, nil, b, 3, 1<<40); err == nil {
			t.Fatal("a run of 2^40 tuples accepted")
		}
	})
	if allocs != 0 {
		t.Errorf("refusing an oversized count cost %.0f allocations, want 0", allocs)
	}
}

// TestDecodeValueRefuses: every malformed value is an error, in a tuple too.
// Only 0 and 1 are a Bool: a decoded Bool(2) would print true and match no
// Eq(Bool(true)).
func TestDecodeValueRefuses(t *testing.T) {
	cases := []struct {
		name, wantErr string
		b             []byte
	}{
		{"empty", "empty buffer", nil},
		{"unknown kind", "unknown kind 6", []byte{6, 0}},
		{"int without payload", "bad varint for kind int", []byte{byte(KindInt)}},
		{"time varint overflow", "bad varint for kind time", append([]byte{byte(KindTime)}, bytes.Repeat([]byte{0xff}, 10)...)},
		{"short float", "short float payload", []byte{byte(KindFloat), 1, 2, 3}},
		{"string longer than the bytes", "bad string length", []byte{byte(KindString), 5, 'a'}},
		{"bool without payload", "bad varint for kind bool", []byte{byte(KindBool)}},
		{"bool 2", "bool payload 2, want 0 or 1", []byte{byte(KindBool), 4}},
		{"bool -1", "bool payload -1, want 0 or 1", []byte{byte(KindBool), 1}},
		{"bool 2^40", "want 0 or 1", binary.AppendVarint([]byte{byte(KindBool)}, 1<<40)},
	}
	for _, c := range cases {
		if v, _, err := DecodeValue(c.b); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: decoded %#v, error %v; want one mentioning %q", c.name, v, err, c.wantErr)
		}
		tuple := append(append([]byte{2}, c.b...), 0) // arity 1, the value, seq 0
		if got, _, err := DecodeTuple(tuple); err == nil {
			t.Errorf("%s: tuple decoded as %v", c.name, got)
		}
		if got, _, err := DecodeTuples(nil, nil, tuple, 1, 1); err == nil {
			t.Errorf("%s: run decoded as %v", c.name, got)
		}
	}
	for _, want := range []Value{Bool(false), Bool(true)} {
		if got, rest, err := DecodeValue(want.AppendBinary(nil)); err != nil || got != want || len(rest) != 0 {
			t.Errorf("%v decoded as %#v, %x left, %v", want, got, rest, err)
		}
	}
}

// poison is what a recycled slab may hold where a run is about to be decoded
// (under the race build queue.Slab writes one like it).
var poison = Value{S: "poison", I: -1, F: math.NaN(), Kind: 0xFF}

// identical is == on every field, floats compared by their bits so that NaN
// and -0.0 are held to what they are.
func identical(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// edgeInts are the varint boundaries: the last value of each encoded length
// and the first of the next, both signs (zigzag doubles the magnitude).
var edgeInts = []int64{0, 1, -1, 63, 64, -64, -65, 8191, 8192, -8192, -8193,
	1<<20 - 1, 1 << 20, -1 << 20, -1<<20 - 1, math.MinInt64, math.MaxInt64}

// randValue covers all six kinds and their edges: the varint boundaries,
// NaN and -0, empty and multi-KB strings.
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(14) {
	case 0:
		return Null
	case 1:
		return Int(edgeInts[rng.Intn(len(edgeInts))])
	case 2:
		return Int((rng.Int63() >> rng.Intn(63)) * int64(1-2*rng.Intn(2)))
	case 3:
		return TimeMicros(rng.Int63n(4e15) - 2e15)
	case 4:
		return Bool(rng.Intn(2) == 0)
	case 5:
		return Float([]float64{math.NaN(), math.Copysign(0, -1), math.Inf(-1), math.MaxFloat64}[rng.Intn(4)])
	case 6:
		return Float(rng.NormFloat64() * 1e9)
	case 7:
		return String_("")
	case 8:
		return String_(strings.Repeat("é", 2500)) // 5 000 bytes
	case 9:
		return TimeMicros(edgeInts[rng.Intn(len(edgeInts))])
	case 10:
		return String_(strings.Repeat("s", 3000))
	default:
		return String_(strings.Repeat("k", rng.Intn(20)))
	}
}

// refValueBytes is the value layout written out field by field.
func refValueBytes(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindInt, KindTime, KindBool:
		b = binary.AppendVarint(b, v.I)
	case KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindString:
		b = append(binary.AppendUvarint(b, uint64(len(v.S))), v.S...)
	}
	return b
}

// TestDecodeOverwritesRecycledArena: random runs decoded into an arena that
// holds poison come out identical to what was encoded — every field of every
// value is written, which is what exec.Slab asks of whoever fills a slab.
func TestDecodeOverwritesRecycledArena(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for iter := 0; iter < 300; iter++ {
		arity, n := rng.Intn(7), 1+rng.Intn(40)
		in := make([]Tuple, n)
		var b []byte
		for i := range in {
			vals := make([]Value, arity)
			for j := range vals {
				vals[j] = randValue(rng)
			}
			in[i] = Tuple{Values: vals, Seq: rng.Int63() - rng.Int63()}
			b = in[i].AppendBinary(b)
		}
		arena := make([]Value, n*arity)
		for i := range arena {
			arena[i] = poison
		}
		out, rest, err := DecodeTuples(nil, func(int) []Value { return arena }, b, arity, n)
		if err != nil || len(rest) != 0 {
			t.Fatalf("iteration %d: %v, %d bytes left", iter, err, len(rest))
		}
		for i, tp := range out {
			if tp.Seq != in[i].Seq || len(tp.Values) != arity || cap(tp.Values) != arity {
				t.Fatalf("iteration %d tuple %d: seq %d arity %d cap %d, want seq %d arity %d",
					iter, i, tp.Seq, len(tp.Values), cap(tp.Values), in[i].Seq, arity)
			}
			for j, v := range tp.Values {
				if !identical(v, in[i].Values[j]) {
					t.Fatalf("iteration %d tuple %d value %d: decoded %#v over poison, want %#v", iter, i, j, v, in[i].Values[j])
				}
			}
		}
	}
}

// FuzzDecodeTuples feeds arbitrary bytes, arity and count to DecodeTuples:
// it never panics, never asks for an arena the bytes could not fill, and a
// run it accepts re-encodes to exactly the bytes it consumed and decodes
// again to identical values.
func FuzzDecodeTuples(f *testing.F) {
	for _, tp := range goldenTuples {
		enc := tp.AppendBinary(nil)
		for _, cut := range []int{len(enc), len(enc) - 1, len(enc) / 2} {
			f.Add(enc[:cut], uint8(tp.Arity()), uint16(1))
		}
	}
	golden, _ := hex.DecodeString(goldenTupleBytes)
	f.Add(golden, uint8(7), uint16(3)) // the arities differ after the first
	f.Add(goldenTuples[0].AppendBinary(goldenTuples[0].AppendBinary(nil)), uint8(7), uint16(2))
	f.Add(golden[:8], uint8(7), uint16(60000))

	f.Fuzz(func(t *testing.T, data []byte, arity uint8, count uint16) {
		a, n := int(arity), int(count)
		arena := func(m int) []Value {
			if m != n*a || n*(a+2) > len(data) {
				t.Fatalf("asked for %d values for %d tuples of arity %d on %d bytes", m, n, a, len(data))
			}
			s := make([]Value, m)
			for i := range s {
				s[i] = poison
			}
			return s
		}
		run, rest, err := DecodeTuples(nil, arena, data, a, n)
		if err != nil {
			return
		}
		if len(run) != n || len(rest) > len(data) {
			t.Fatalf("%d tuples and %d bytes left from %d bytes", len(run), len(rest), len(data))
		}
		var b []byte
		for _, tp := range run {
			b = tp.AppendBinary(b)
		}
		if consumed := data[:len(data)-len(rest)]; !bytes.Equal(b, consumed) {
			t.Fatalf("accepted run\n%x\nre-encodes as\n%x", consumed, b)
		}
		again, rest, err := DecodeTuples(nil, nil, b, a, n)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded run does not decode: %v, %d bytes left", err, len(rest))
		}
		for i, tp := range run {
			if again[i].Seq != tp.Seq {
				t.Fatalf("tuple %d: seq %d re-decoded as %d", i, tp.Seq, again[i].Seq)
			}
			for j, v := range tp.Values {
				if !identical(v, again[i].Values[j]) {
					t.Fatalf("tuple %d value %d: %#v re-decoded as %#v", i, j, v, again[i].Values[j])
				}
			}
		}
	})
}

// TestTupleCodecEquivalence holds the one-pass tuple codec to the value
// codec, and the value encoder to its layout written out field by field:
// Tuple.AppendBinary writes varint(arity) ‖ Value.AppendBinary… ‖
// varint(seq), into buffers of any spare capacity, and DecodeTuples reads
// what DecodeValue reads value by value.
func TestTupleCodecEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 500; iter++ {
		arity, n := rng.Intn(8), 1+rng.Intn(20)
		prefix := make([]byte, rng.Intn(4), 4+rng.Intn(64))
		b, ref := prefix, append([]byte(nil), prefix...)
		for i := 0; i < n; i++ {
			tp := Tuple{Values: make([]Value, arity), Seq: edgeInts[rng.Intn(len(edgeInts))]}
			if rng.Intn(2) == 0 {
				tp.Seq = rng.Int63() >> rng.Intn(63)
			}
			ref = binary.AppendVarint(ref, int64(arity))
			for j := range tp.Values {
				v := randValue(rng)
				if got, want := v.AppendBinary(nil), refValueBytes(nil, v); !bytes.Equal(got, want) {
					t.Fatalf("%#v encoded as %x, want %x", v, got, want)
				}
				tp.Values[j] = v
				ref = v.AppendBinary(ref)
			}
			ref = binary.AppendVarint(ref, tp.Seq)
			b = tp.AppendBinary(b)
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("iteration %d: run encoded as\n%x\nwant\n%x", iter, b, ref)
		}

		run, rest, err := DecodeTuples(nil, nil, b[len(prefix):], arity, n)
		if err != nil || len(rest) != 0 {
			t.Fatalf("iteration %d: %v, %d bytes left", iter, err, len(rest))
		}
		r := ref[len(prefix):]
		for i, tp := range run {
			a, k := binary.Varint(r)
			if k <= 0 || a != int64(arity) {
				t.Fatalf("iteration %d tuple %d: arity prefix %x", iter, i, r[:min(len(r), 10)])
			}
			r = r[k:]
			for j, got := range tp.Values {
				var want Value
				if want, r, err = DecodeValue(r); err != nil {
					t.Fatalf("iteration %d tuple %d value %d: %v", iter, i, j, err)
				}
				if !identical(got, want) {
					t.Fatalf("iteration %d tuple %d value %d: DecodeTuples read %#v, DecodeValue %#v", iter, i, j, got, want)
				}
			}
			seq, k := binary.Varint(r)
			if k <= 0 || seq != tp.Seq {
				t.Fatalf("iteration %d tuple %d: seq %d, DecodeValue's walk reads %d", iter, i, tp.Seq, seq)
			}
			r = r[k:]
		}
	}
}

// TestDecodeRefusesOverlongVarints: a varint longer than its value needs
// does not decode, as an arity, a value or a sequence number, so that
// FuzzDecodeTuples' accepted runs re-encode to their own bytes.
func TestDecodeRefusesOverlongVarints(t *testing.T) {
	for _, c := range []struct {
		name, wantErr string
		b             []byte
	}{
		{"arity 1 in two bytes", "want 1", []byte{0x82, 0x00, byte(KindInt), 2, 0}},
		{"int 1 in two bytes", "bad varint for kind int", []byte{2, byte(KindInt), 0x82, 0x00, 0}},
		{"time 64 in three bytes", "bad varint for kind time", []byte{2, byte(KindTime), 0x80, 0x81, 0x00, 0}},
		{"int 0 in ten bytes", "bad varint for kind int", append(append([]byte{2, byte(KindInt)}, bytes.Repeat([]byte{0x80}, 9)...), 0, 0)},
		{"bool 1 in two bytes", "bad varint for kind bool", []byte{2, byte(KindBool), 0x82, 0x00, 0}},
		{"string length in two bytes", "bad string length", []byte{2, byte(KindString), 0x81, 0x00, 'x', 0}},
		{"seq 0 in two bytes", "bad sequence number", []byte{2, byte(KindNull), 0x80, 0x00}},
	} {
		if got, _, err := DecodeTuples(nil, nil, c.b, 1, 1); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: decoded %v, error %v; want one mentioning %q", c.name, got, err, c.wantErr)
		}
		if got, _, err := DecodeTuple(c.b); err == nil {
			t.Errorf("%s: tuple decoded as %v", c.name, got)
		}
	}
}

// BenchmarkTupleCodec encodes and decodes a 512-tuple run shaped like the
// remote_checkpointed workload's stream (segment, detector, timestamp,
// speed; about 23 bytes a tuple): the per-tuple cost of a remote data frame
// on each side of the wire.
func BenchmarkTupleCodec(b *testing.B) {
	const n, base = 512, 1 << 19
	run := make([]Tuple, n)
	var wire []byte
	for i := range run {
		r := uint64(i+base) * 0x9E3779B97F4A7C15
		run[i] = Tuple{Values: []Value{
			Int(int64(r % 50_000)), Int(int64(r >> 20 & 31)),
			TimeMicros(int64(i + base)), Float(float64(r>>28&0xffff) * (80.0 / 65536)),
		}, Seq: int64(i + base)}
		wire = run[i].AppendBinary(wire)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(wire))
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, t := range run {
				buf = t.AppendBinary(buf)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
	})
	b.Run("decode", func(b *testing.B) {
		dst, arena := make([]Tuple, 0, n), make([]Value, 4*n)
		slab := func(int) []Value { return arena }
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeTuples(dst[:0], slab, wire, 4, n); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
	})
}
