package stream

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary value codec shared by the network edge (internal/remote data frames
// carry runs of tuples in it) and the checkpoint subsystem
// (internal/snapshot): kind byte followed by a kind-specific payload.
// Integer domains use zigzag varints (timestamps and small ints dominate real
// streams), floats are fixed 8-byte IEEE bits, strings are length-prefixed.
// The encoding is self-delimiting, so values can be concatenated without
// framing.

// AppendBinary appends the value's binary encoding to b and returns the
// extended buffer.
func (v Value) AppendBinary(b []byte) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindInt, KindTime, KindBool:
		b = binary.AppendVarint(b, v.I)
	case KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindString:
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		b = append(b, v.S...)
	}
	return b
}

// DecodeValue decodes one value from the front of b, returning the value
// and the remaining bytes.
func DecodeValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, fmt.Errorf("stream: decode value: empty buffer")
	}
	kind := Kind(b[0])
	b = b[1:]
	switch kind {
	case KindNull:
		return Null, b, nil
	case KindInt, KindTime, KindBool:
		i, n := binary.Varint(b)
		if n <= 0 {
			return Null, nil, fmt.Errorf("stream: decode value: bad varint for kind %v", kind)
		}
		return Value{Kind: kind, I: i}, b[n:], nil
	case KindFloat:
		if len(b) < 8 {
			return Null, nil, fmt.Errorf("stream: decode value: short float payload")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(b))
		return Float(f), b[8:], nil
	case KindString:
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return Null, nil, fmt.Errorf("stream: decode value: bad string length")
		}
		return String_(string(b[n : n+int(l)])), b[n+int(l):], nil
	}
	return Null, nil, fmt.Errorf("stream: decode value: unknown kind %d", kind)
}

// Binary tuple codec — the one tuple wire format in the system, written by
// checkpoint blobs (snapshot.Encoder.PutTuple) and by remote data frames:
//
//	varint(arity) | arity × value | varint(seq)

// AppendBinary appends the tuple's binary encoding to b and returns the
// extended buffer.
//
//pace:hotpath
func (t Tuple) AppendBinary(b []byte) []byte {
	b = binary.AppendVarint(b, int64(len(t.Values)))
	for i := range t.Values {
		b = t.Values[i].AppendBinary(b)
	}
	return binary.AppendVarint(b, t.Seq)
}

// DecodeTuple decodes one tuple of any arity from the front of b, returning
// the tuple and the remaining bytes.
func DecodeTuple(b []byte) (Tuple, []byte, error) {
	arity, n := binary.Varint(b)
	// Every value costs at least one byte, so an arity beyond the buffer is
	// corrupt and must not size an allocation.
	if n <= 0 || arity < 0 || arity > int64(len(b)-n) {
		return Tuple{}, nil, fmt.Errorf("stream: decode tuple: bad arity")
	}
	vals, seq, rest, err := decodeTupleBody(make([]Value, 0, arity), b[n:], int(arity))
	if err != nil {
		return Tuple{}, nil, err
	}
	return Tuple{Values: vals, Seq: seq}, rest, nil
}

// DecodeTuples decodes a run of n tuples, each of the given arity, from the
// front of b. The tuples are appended to dst and their values to arena, which
// the tuples alias: a caller that passes an arena with room for n×arity values
// pays one allocation for the whole run. It returns the extended dst and the
// remaining bytes.
func DecodeTuples(dst []Tuple, arena []Value, b []byte, arity, n int) ([]Tuple, []byte, error) {
	for i := 0; i < n; i++ {
		a, k := binary.Varint(b)
		if k <= 0 || a != int64(arity) {
			return dst, nil, fmt.Errorf("stream: decode tuple %d of %d: arity %d (%d bytes left), want %d", i, n, a, len(b), arity)
		}
		start := len(arena)
		var seq int64
		var err error
		if arena, seq, b, err = decodeTupleBody(arena, b[k:], arity); err != nil {
			return dst, nil, fmt.Errorf("stream: decode tuple %d of %d: %w", i, n, err)
		}
		dst = append(dst, Tuple{Values: arena[start:len(arena):len(arena)], Seq: seq})
	}
	return dst, b, nil
}

// decodeTupleBody decodes arity values and the sequence number that follow a
// tuple's arity prefix, appending the values to vals.
func decodeTupleBody(vals []Value, b []byte, arity int) ([]Value, int64, []byte, error) {
	for j := 0; j < arity; j++ {
		v, rest, err := DecodeValue(b)
		if err != nil {
			return nil, 0, nil, err
		}
		vals, b = append(vals, v), rest
	}
	seq, n := binary.Varint(b)
	if n <= 0 {
		return nil, 0, nil, fmt.Errorf("stream: decode tuple: bad sequence number")
	}
	return vals, seq, b[n:], nil
}
