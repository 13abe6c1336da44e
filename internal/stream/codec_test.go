package stream

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	s := MustSchema(F("id", KindInt), F("name", KindString), F("ts", KindTime), F("v", KindFloat))
	in := []Tuple{
		NewTuple(Int(1), String_("plain"), TimeMicros(1000), Float(1.5)),
		NewTuple(Int(2), String_("with, comma"), TimeMicros(2000), Float(-3)),
		NewTuple(Int(3), String_(`quote " inside`), TimeMicros(3000), Null),
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, s)
	for _, tp := range in {
		if err := enc.Encode(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf, s)
	for i := 0; ; i++ {
		tp, err := dec.Decode()
		if err == io.EOF {
			if i != len(in) {
				t.Fatalf("decoded %d tuples, want %d", i, len(in))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(tp.Values, in[i].Values, Value.Equal) {
			t.Errorf("tuple %d: got %v want %v", i, tp, in[i])
		}
	}
}

func TestDecoderSkipsCommentsAndBlanks(t *testing.T) {
	s := MustSchema(F("a", KindInt))
	input := "# header\n\n5\n  \n7\n"
	dec := NewDecoder(strings.NewReader(input), s)
	var got []int64
	for {
		tp, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tp.At(0).AsInt())
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Errorf("got %v", got)
	}
}

func TestDecoderArityError(t *testing.T) {
	s := MustSchema(F("a", KindInt), F("b", KindInt))
	dec := NewDecoder(strings.NewReader("1,2,3\n"), s)
	if _, err := dec.Decode(); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestEncoderValidates(t *testing.T) {
	s := MustSchema(F("a", KindInt))
	enc := NewEncoder(io.Discard, s)
	if err := enc.Encode(NewTuple(String_("x"))); err == nil {
		t.Error("encoding a mistyped tuple must fail")
	}
}
