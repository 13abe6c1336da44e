package stream

import (
	"encoding/hex"
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
	arena := make([]Value, 0, 9)
	out, rest, err := DecodeTuples(nil, arena, b, 3, 3)
	if err != nil {
		t.Fatal(err)
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
	if &out[0].Values[0] != &arena[:1][0] {
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
}
