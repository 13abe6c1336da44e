// Package stream defines the tuple, value, and schema model shared by every
// operator in the system. It corresponds to the relational substrate of
// NiagaraST: streams are unbounded sequences of fixed-schema tuples, and
// punctuation patterns (package punct) are expressed over the same attribute
// space.
package stream

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the value types supported by stream schemas.
type Kind uint8

const (
	// KindNull marks a missing value (e.g. a failed sensor reading).
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindString is an immutable UTF-8 string.
	KindString
	// KindTime is an event timestamp with microsecond resolution.
	KindTime
	// KindBool is a boolean.
	KindBool
)

var kindNames = [...]string{
	KindNull:   "null",
	KindInt:    "int",
	KindFloat:  "float",
	KindString: "string",
	KindTime:   "time",
	KindBool:   "bool",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return KindNull, fmt.Errorf("stream: unknown kind %q", s)
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a compact tagged union. It is passed and stored by value; a Value
// never aliases mutable state, so tuples can be shared freely across
// operator goroutines without copying.
//
// Encoding: Int and Bool use I; Time uses I as Unix microseconds; Float uses
// F; String uses S. Null uses no field.
type Value struct {
	S    string
	I    int64
	F    float64
	Kind Kind
}

// Null is the missing value.
var Null = Value{Kind: KindNull}

// Int constructs an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float constructs a float value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// String_ constructs a string value. (Named with a trailing underscore so the
// constructor does not collide with the fmt.Stringer method on Value.)
func String_(v string) Value { return Value{Kind: KindString, S: v} }

// Bool constructs a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Time constructs a timestamp value with microsecond resolution.
func Time(t time.Time) Value { return Value{Kind: KindTime, I: t.UnixMicro()} }

// TimeMicros constructs a timestamp value directly from Unix microseconds.
// Stream time in this system is always carried as Unix microseconds, which
// keeps window arithmetic free of time.Time allocation.
func TimeMicros(us int64) Value { return Value{Kind: KindTime, I: us} }

// Ordinal is the inverse of reading an integer bound off an ordered
// attribute (punct.Pattern.Progress): the value of an attribute of kind k —
// a timestamp for KindTime, an integer otherwise — whose content is v.
func Ordinal(k Kind, v int64) Value {
	if k == KindTime {
		return TimeMicros(v)
	}
	return Int(v)
}

// IsNull reports whether v is the missing value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsInt returns the integer content. It is valid for KindInt and KindBool.
func (v Value) AsInt() int64 { return v.I }

// AsFloat returns the value as a float64, converting from int if needed.
func (v Value) AsFloat() float64 {
	if v.Kind == KindInt {
		return float64(v.I)
	}
	return v.F
}

// AsString returns the string content (KindString only).
func (v Value) AsString() string { return v.S }

// AsTime returns the timestamp as a time.Time (KindTime only).
func (v Value) AsTime() time.Time { return time.UnixMicro(v.I) }

// Micros returns the timestamp in Unix microseconds (KindTime only).
func (v Value) Micros() int64 { return v.I }

// Comparable reports whether two values can be ordered against each other.
// Int and Float are mutually comparable; other kinds compare only with
// themselves. Null compares with nothing (SQL-style).
func (v Value) Comparable(o Value) bool {
	if v.Kind == o.Kind {
		return v.Kind != KindNull
	}
	return v.Kind.Numeric() && o.Kind.Numeric()
}

// Compare orders v against o: -1 if v < o, 0 if equal, +1 if v > o.
// Comparing incomparable values (including any Null) returns false in ok.
func (v Value) Compare(o Value) (cmp int, ok bool) {
	if !v.Comparable(o) {
		return 0, false
	}
	switch {
	case v.Kind.Numeric() && o.Kind.Numeric():
		if v.Kind == KindInt && o.Kind == KindInt {
			return cmpInt64(v.I, o.I), true
		}
		a, b := v.AsFloat(), o.AsFloat()
		if math.IsNaN(a) || math.IsNaN(b) {
			return 0, false
		}
		return cmpFloat64(a, b), true
	case v.Kind == KindString:
		switch {
		case v.S < o.S:
			return -1, true
		case v.S > o.S:
			return 1, true
		}
		return 0, true
	case v.Kind == KindTime, v.Kind == KindBool:
		return cmpInt64(v.I, o.I), true
	}
	return 0, false
}

// Equal reports value equality. Nulls are equal to each other for grouping
// purposes (hash-key semantics), matching NiagaraST's grouping behaviour.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return v.Kind == o.Kind
	}
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Hash returns a 64-bit FNV-1a hash of the value, used for group keys and
// join buckets. Int and Float hash identically when they represent the same
// integral quantity so mixed-kind numeric grouping behaves sensibly; the
// guarantee holds for magnitudes up to 2^53, where float64 is exact.
func (v Value) Hash() uint64 { return hashValue(&v) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashValue is Hash without the receiver copy: FNV-1a over the byte 0xff for
// Null, the string's bytes, or the 8 payload bytes of a fixed-width kind,
// least significant first.
func hashValue(v *Value) uint64 {
	h := uint64(fnvOffset)
	switch v.Kind {
	case KindNull:
		return (h ^ 0xff) * fnvPrime
	case KindInt, KindTime, KindBool:
		return fnv8(uint64(v.I))
	case KindFloat:
		if f := v.F; f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return fnv8(uint64(int64(f)))
		}
		return fnv8(math.Float64bits(v.F))
	case KindString:
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime
		}
	}
	return h
}

// fnv8 folds the 8 bytes of u into the FNV-1a offset basis, unrolled.
func fnv8(u uint64) uint64 {
	h := (fnvOffset ^ u&0xff) * fnvPrime
	h = (h ^ u>>8&0xff) * fnvPrime
	h = (h ^ u>>16&0xff) * fnvPrime
	h = (h ^ u>>24&0xff) * fnvPrime
	h = (h ^ u>>32&0xff) * fnvPrime
	h = (h ^ u>>40&0xff) * fnvPrime
	h = (h ^ u>>48&0xff) * fnvPrime
	return (h ^ u>>56) * fnvPrime
}

// String renders the value for logs and punctuation printing.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	case KindTime:
		return time.UnixMicro(v.I).UTC().Format("2006-01-02T15:04:05.000000Z")
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return fmt.Sprintf("value(kind=%d)", v.Kind)
}

// ParseValue parses the rendering produced by Value.String for the given
// kind. It is the ingest path for CSV-style sources.
func ParseValue(kind Kind, s string) (Value, error) {
	if s == "null" {
		return Null, nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("stream: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("stream: parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		if len(s) >= 2 && s[0] == '"' {
			u, err := strconv.Unquote(s)
			if err != nil {
				return Null, fmt.Errorf("stream: parse string %q: %w", s, err)
			}
			return String_(u), nil
		}
		return String_(s), nil
	case KindTime:
		if t, err := time.Parse("2006-01-02T15:04:05.000000Z", s); err == nil {
			return Time(t), nil
		}
		if us, err := strconv.ParseInt(s, 10, 64); err == nil {
			return TimeMicros(us), nil
		}
		return Null, fmt.Errorf("stream: parse time %q", s)
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null, fmt.Errorf("stream: parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	case KindNull:
		return Null, nil
	}
	return Null, fmt.Errorf("stream: parse: unsupported kind %v", kind)
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
