package stream

import (
	"strings"
	"testing"
)

func trafficSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(
		F("segment", KindInt),
		F("detector", KindInt),
		F("ts", KindTime),
		F("speed", KindFloat),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(F("a", KindInt), F("a", KindFloat)); err == nil {
		t.Error("duplicate field names must be rejected")
	}
	if _, err := NewSchema(F("", KindInt)); err == nil {
		t.Error("empty field name must be rejected")
	}
}

func TestSchemaIndexAndHas(t *testing.T) {
	s := trafficSchema(t)
	if s.Arity() != 4 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.Index("ts") != 2 || !s.Has("speed") || s.Index("nope") != -1 || s.Has("nope") {
		t.Error("Index/Has misbehave")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := trafficSchema(t)
	b := trafficSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas must be equal")
	}
	c := MustSchema(F("segment", KindInt))
	if a.Equal(c) {
		t.Error("different schemas must not be equal")
	}
}

func TestSchemaConcatRenamesCollisions(t *testing.T) {
	a := MustSchema(F("id", KindInt), F("v", KindFloat))
	b := MustSchema(F("id", KindInt), F("w", KindFloat))
	out, err := a.Concat(b, "right_")
	if err != nil {
		t.Fatal(err)
	}
	if out.Arity() != 4 || out.Index("right_id") != 2 || out.Index("w") != 3 {
		t.Errorf("concat schema: %s", out)
	}
}

func TestSchemaCheckValue(t *testing.T) {
	s := trafficSchema(t)
	if err := s.CheckValue(3, Float(55)); err != nil {
		t.Error(err)
	}
	if err := s.CheckValue(3, Int(55)); err != nil {
		t.Error("int→float widening should be allowed:", err)
	}
	if err := s.CheckValue(3, Null); err != nil {
		t.Error("null should be storable anywhere:", err)
	}
	if err := s.CheckValue(0, Float(1.5)); err == nil {
		t.Error("float into int attr must fail")
	}
	if err := s.CheckValue(9, Int(1)); err == nil {
		t.Error("out-of-range index must fail")
	}
}

func TestSchemaString(t *testing.T) {
	s := trafficSchema(t)
	str := s.String()
	for _, want := range []string{"segment:int", "ts:time", "speed:float"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestTupleBasics(t *testing.T) {
	s := trafficSchema(t)
	tp := NewTuple(Int(3), Int(7), TimeMicros(1000), Float(52.5)).WithSeq(9)
	if err := tp.Validate(s); err != nil {
		t.Fatal(err)
	}
	if tp.Seq != 9 || tp.Arity() != 4 || !tp.At(3).Equal(Float(52.5)) {
		t.Error("tuple accessors")
	}
	clone := tp.Clone()
	clone.Values[0] = Int(99)
	if tp.At(0).AsInt() != 3 {
		t.Error("Clone must not share value storage")
	}
	proj := tp.Project([]int{3, 0})
	if proj.Arity() != 2 || !proj.At(0).Equal(Float(52.5)) || !proj.At(1).Equal(Int(3)) {
		t.Error("Project")
	}
}

func TestTupleValidateErrors(t *testing.T) {
	s := trafficSchema(t)
	if err := NewTuple(Int(1)).Validate(s); err == nil {
		t.Error("arity mismatch must fail")
	}
	if err := NewTuple(Int(1), Int(2), TimeMicros(1), String_("x")).Validate(s); err == nil {
		t.Error("kind mismatch must fail")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Keys must distinguish <"ab","c"> from <"a","bc">.
	a := NewTuple(String_("ab"), String_("c"))
	b := NewTuple(String_("a"), String_("bc"))
	if a.Key([]int{0, 1}) == b.Key([]int{0, 1}) {
		t.Error("Key is not injective on string boundaries")
	}
	// Equal tuples must share keys.
	c := NewTuple(Int(5), Float(2.5), Null)
	d := NewTuple(Int(5), Float(2.5), Null)
	if c.Key([]int{0, 1, 2}) != d.Key([]int{0, 1, 2}) {
		t.Error("equal tuples must have equal keys")
	}
}
