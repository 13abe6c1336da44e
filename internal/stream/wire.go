package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary value codec shared by the network edge (internal/remote data frames
// carry runs of tuples in it) and the checkpoint subsystem
// (internal/snapshot): kind byte followed by a kind-specific payload.
// Integer domains use zigzag varints (timestamps and small ints dominate real
// streams), floats are fixed 8-byte IEEE bits, strings are length-prefixed.
// The encoding is self-delimiting, so values can be concatenated without
// framing. A Bool's payload is 0 or 1; anything else is refused, so a decoded
// Bool is always one Bool(b) would build.
//
// There is one value encoder, Value.AppendBinary, and one value decoder,
// decodeValue, which every decoding function below is built on.

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
	var v Value
	n, err := decodeValue(&v, b)
	if err != nil {
		return Null, nil, err
	}
	return v, b[n:], nil
}

// decodeValue decodes the value at the front of b into *v, writing every
// field — *v may hold anything before, a recycled slab's leftovers or a
// sentinel — and returns the number of bytes it took.
//
//pace:hotpath
func decodeValue(v *Value, b []byte) (int, error) {
	if len(b) == 0 {
		return 0, badValue(b)
	}
	switch kind := Kind(b[0]); kind {
	case KindNull:
		*v = Value{}
		return 1, nil
	case KindInt, KindTime, KindBool:
		i, n := binary.Varint(b[1:])
		if n <= 0 || kind == KindBool && uint64(i) > 1 {
			return 0, badValue(b)
		}
		*v = Value{I: i, Kind: kind}
		return 1 + n, nil
	case KindFloat:
		if len(b) < 9 {
			return 0, badValue(b)
		}
		*v = Value{F: math.Float64frombits(binary.BigEndian.Uint64(b[1:])), Kind: KindFloat}
		return 9, nil
	case KindString:
		l, n := binary.Uvarint(b[1:])
		if n <= 0 || uint64(len(b)-1-n) < l {
			return 0, badValue(b)
		}
		end := 1 + n + int(l)
		*v = Value{S: string(b[1+n : end]), Kind: KindString}
		return end, nil
	}
	return 0, badValue(b)
}

// badValue says what is wrong with the value at the front of b, which
// decodeValue refused.
func badValue(b []byte) error {
	if len(b) == 0 {
		return errors.New("stream: decode value: empty buffer")
	}
	switch kind := Kind(b[0]); kind {
	case KindInt, KindTime, KindBool:
		if i, n := binary.Varint(b[1:]); n > 0 {
			return fmt.Errorf("stream: decode value: bool payload %d, want 0 or 1", i)
		}
		return fmt.Errorf("stream: decode value: bad varint for kind %v", kind)
	case KindFloat:
		return errors.New("stream: decode value: short float payload")
	case KindString:
		return errors.New("stream: decode value: bad string length")
	}
	return fmt.Errorf("stream: decode value: unknown kind %d", b[0])
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
		return Tuple{}, nil, errors.New("stream: decode tuple: bad arity")
	}
	vals := make([]Value, arity)
	seq, m, err := decodeTupleBody(vals, b[n:])
	if err != nil {
		return Tuple{}, nil, err
	}
	return Tuple{Values: vals, Seq: seq}, b[n+m:], nil
}

// errRunTooLong refuses a run whose count the bytes cannot hold. It is a
// fixed value so that refusing costs no allocation either.
var errRunTooLong = errors.New("stream: decode tuples: more tuples than the bytes can hold")

// DecodeTuples decodes a run of n tuples, each of the given arity, from the
// front of b and appends them to dst. Their values live in one arena of
// n×arity values, drawn from arena (nil: a fresh slice) only once the bytes
// have been found able to hold the run — every tuple takes at least its arity
// prefix, one byte per value and its sequence number — so a hostile n sizes
// nothing. The arena may hold anything: every value is overwritten, and each
// tuple's Values is its own slot with cap == len. It returns the extended dst
// and the remaining bytes.
//
//pace:hotpath
func DecodeTuples(dst []Tuple, arena func(n int) []Value, b []byte, arity, n int) ([]Tuple, []byte, error) {
	if n < 0 || arity < 0 || n > len(b)/(arity+2) {
		return dst, nil, errRunTooLong
	}
	var vals []Value
	if n*arity > 0 {
		if arena != nil {
			vals = arena(n * arity)[:n*arity]
		} else {
			vals = make([]Value, n*arity) //pace:allow-alloc no arena given: the run owns garbage-collected memory
		}
	}
	dst = slices.Grow(dst, n)
	p := 0
	for i := 0; i < n; i++ {
		a, k := binary.Varint(b[p:])
		if k <= 0 || a != int64(arity) {
			return dst, nil, badArity(i, n, a, len(b)-p, arity)
		}
		slot := vals[i*arity : (i+1)*arity : (i+1)*arity]
		seq, m, err := decodeTupleBody(slot, b[p+k:])
		if err != nil {
			return dst, nil, badTuple(i, n, err)
		}
		p += k + m
		dst = append(dst, Tuple{Values: slot, Seq: seq})
	}
	return dst, b[p:], nil
}

// decodeTupleBody decodes len(vals) values into vals and the sequence number
// that follows them, returning the sequence number and the bytes taken.
//
//pace:hotpath
func decodeTupleBody(vals []Value, b []byte) (int64, int, error) {
	p := 0
	for j := range vals {
		m, err := decodeValue(&vals[j], b[p:])
		if err != nil {
			return 0, 0, err
		}
		p += m
	}
	seq, m := binary.Varint(b[p:])
	if m <= 0 {
		return 0, 0, errBadSeq
	}
	return seq, p + m, nil
}

var errBadSeq = errors.New("stream: decode tuple: bad sequence number")

func badTuple(i, n int, err error) error {
	return fmt.Errorf("stream: decode tuple %d of %d: %w", i, n, err)
}

func badArity(i, n int, a int64, left, arity int) error {
	return fmt.Errorf("stream: decode tuple %d of %d: arity %d (%d bytes left), want %d", i, n, a, left, arity)
}
