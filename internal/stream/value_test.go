package stream

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindTime: "time", KindBool: "bool",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
		parsed, err := ParseKind(want)
		if err != nil || parsed != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", want, parsed, err, k)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted unknown kind")
	}
}

func TestKindNumeric(t *testing.T) {
	if !KindInt.Numeric() || !KindFloat.Numeric() {
		t.Error("int/float must be numeric")
	}
	if KindString.Numeric() || KindTime.Numeric() {
		t.Error("string/time must not be numeric")
	}
}

func TestValueConstructorsRoundTrip(t *testing.T) {
	if v := Int(42); v.Kind != KindInt || v.AsInt() != 42 {
		t.Errorf("Int: %v", v)
	}
	if v := Float(2.5); v.Kind != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float: %v", v)
	}
	if v := String_("hi"); v.Kind != KindString || v.AsString() != "hi" {
		t.Errorf("String: %v", v)
	}
	if v := Bool(true); v.Kind != KindBool || v.I != 1 {
		t.Errorf("Bool: %v", v)
	}
	now := time.Now().Truncate(time.Microsecond).UTC()
	if v := Time(now); !v.AsTime().Equal(now) {
		t.Errorf("Time: %v vs %v", v.AsTime(), now)
	}
	if v := TimeMicros(123456); v.Micros() != 123456 {
		t.Errorf("TimeMicros: %v", v)
	}
	if !Null.IsNull() || Int(1).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(1), Float(1.5), -1, true},
		{Float(2.0), Int(2), 0, true},
		{String_("a"), String_("b"), -1, true},
		{TimeMicros(5), TimeMicros(9), -1, true},
		{Bool(false), Bool(true), -1, true},
		{Int(1), String_("a"), 0, false},
		{Null, Int(1), 0, false},
		{Null, Null, 0, false},
		{Float(math.NaN()), Float(1), 0, false},
	}
	for _, tc := range tests {
		cmp, ok := tc.a.Compare(tc.b)
		if cmp != tc.cmp || ok != tc.ok {
			t.Errorf("Compare(%v, %v) = %d,%v; want %d,%v", tc.a, tc.b, cmp, ok, tc.cmp, tc.ok)
		}
	}
}

func TestValueEqualNullSemantics(t *testing.T) {
	if !Null.Equal(Null) {
		t.Error("Null must equal Null for grouping")
	}
	if Null.Equal(Int(0)) || Int(0).Equal(Null) {
		t.Error("Null must not equal a value")
	}
	if !Int(2).Equal(Float(2)) {
		t.Error("mixed numeric equality should hold")
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		ca, _ := Int(a).Compare(Int(b))
		cb, _ := Int(b).Compare(Int(a))
		return ca == -cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueHashConsistentWithEqual(t *testing.T) {
	f := func(a int64) bool {
		// Int and equal Float must hash identically within float64's
		// exact-integer range (the documented contract).
		a %= 1 << 53
		return Int(a).Hash() == Float(float64(a)).Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if Int(1).Hash() == Int(2).Hash() {
		t.Error("suspicious hash collision on small ints")
	}
}

func TestValueStringParseRoundTrip(t *testing.T) {
	vals := []Value{
		Int(-7), Float(3.25), String_("a,b\"c"), Bool(true), Bool(false),
		TimeMicros(1733648400000000), Null,
	}
	kinds := []Kind{KindInt, KindFloat, KindString, KindBool, KindBool, KindTime, KindInt}
	for i, v := range vals {
		s := v.String()
		got, err := ParseValue(kinds[i], s)
		if err != nil {
			t.Fatalf("ParseValue(%v, %q): %v", kinds[i], s, err)
		}
		if v.IsNull() != got.IsNull() || (!v.IsNull() && !v.Equal(got)) {
			t.Errorf("round trip %q: got %v want %v", s, got, v)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	bad := []struct {
		kind Kind
		s    string
	}{
		{KindInt, "abc"},
		{KindFloat, "x"},
		{KindBool, "2"},
		{KindTime, "yesterday"},
	}
	for _, tc := range bad {
		if _, err := ParseValue(tc.kind, tc.s); err == nil {
			t.Errorf("ParseValue(%v, %q) should fail", tc.kind, tc.s)
		}
	}
}
