package stream

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Tuple is one stream element. Values are positional against the stream's
// schema. Tuples are treated as immutable once emitted: operators that
// transform tuples build new ones.
//
// Seq is a source-assigned sequence number used by the experiment harnesses
// to track per-tuple latency (the "TupleID" axis of Figures 5 and 6); it is
// not visible to relational semantics.
type Tuple struct {
	Values []Value
	Seq    int64
}

// NewTuple builds a tuple from values.
func NewTuple(vals ...Value) Tuple { return Tuple{Values: vals} }

// Arity returns the number of values.
func (t Tuple) Arity() int { return len(t.Values) }

// At returns the i-th value.
func (t Tuple) At(i int) Value { return t.Values[i] }

// WithSeq returns a copy of t carrying the given sequence number.
func (t Tuple) WithSeq(seq int64) Tuple {
	t.Seq = seq
	return t
}

// Clone deep-copies the tuple (values are immutable, so only the slice is
// duplicated).
func (t Tuple) Clone() Tuple {
	return Tuple{Values: append([]Value(nil), t.Values...), Seq: t.Seq}
}

// Project builds a new tuple from the given source indices.
func (t Tuple) Project(idxs []int) Tuple {
	vals := make([]Value, len(idxs))
	for i, src := range idxs {
		vals[i] = t.Values[src]
	}
	return Tuple{Values: vals, Seq: t.Seq}
}

// AppendValues appends the tuple's values to a caller-owned buffer and
// returns the extended buffer. Emit paths that assemble composite tuples
// (join outputs, aggregate results) use it to build the value slice in a
// single allocation instead of chaining Project/Concat copies.
func (t Tuple) AppendValues(buf []Value) []Value { return append(buf, t.Values...) }

// AppendProjected appends the values at the given source indices to a
// caller-owned buffer and returns the extended buffer.
func (t Tuple) AppendProjected(buf []Value, idxs []int) []Value {
	for _, src := range idxs {
		buf = append(buf, t.Values[src])
	}
	return buf
}

// Key returns a canonical string encoding of the projected attributes,
// usable as a map key for grouping and joining. The encoding is injective
// per schema (kind byte + length-prefixed payload).
func (t Tuple) Key(idxs []int) string { return string(t.AppendKey(nil, idxs)) }

// AppendKey appends the Key encoding to a caller-owned buffer and returns
// the extended buffer. Hot paths keep a scratch buffer and look up maps
// with string(buf) — the compiler elides that conversion's allocation — so
// steady-state grouping and probing never allocate for the key.
func (t Tuple) AppendKey(b []byte, idxs []int) []byte {
	for _, i := range idxs {
		v := t.Values[i]
		b = append(b, byte(v.Kind))
		switch v.Kind {
		case KindNull:
		case KindString:
			b = strconv.AppendInt(b, int64(len(v.S)), 10)
			b = append(b, ':')
			b = append(b, v.S...)
		case KindFloat:
			b = strconv.AppendUint(b, math.Float64bits(v.F), 16)
			b = append(b, ';')
		default:
			b = strconv.AppendUint(b, uint64(v.I), 16)
			b = append(b, ';')
		}
	}
	return b
}

// Hash combines the hashes of the projected attributes.
func (t Tuple) Hash(idxs []int) uint64 {
	h := uint64(1469598103934665603)
	for _, i := range idxs {
		h ^= hashValue(&t.Values[i])
		h *= fnvPrime
	}
	return h
}

// Validate checks every value against the schema.
func (t Tuple) Validate(s Schema) error {
	if t.Arity() != s.Arity() {
		return fmt.Errorf("stream: tuple arity %d != schema arity %d (%s)", t.Arity(), s.Arity(), s)
	}
	for i := range t.Values {
		if err := s.CheckValue(i, t.Values[i]); err != nil {
			return err
		}
	}
	return nil
}

// String renders the tuple as <v1, v2, ...>.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range t.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte('>')
	return b.String()
}
