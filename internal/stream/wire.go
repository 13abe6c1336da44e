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
// Value.AppendBinary and decodeValue define the value layout. The tuple
// codec below writes and reads it inline for speed, held to them byte for
// byte (TestTupleCodecEquivalence); every value it does not read inline,
// and every refusal, goes through decodeValue.

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
		i, n := varint(b[1:])
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
		l, n := uvarint(b[1:])
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
		if i, n := varint(b[1:]); n > 0 {
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

// uvarint is binary.Uvarint, refusing (n == 0) an encoding longer than the
// value needs — one that ends in a zero byte. The encoders write no such
// bytes, so whatever decodes re-encodes to exactly the bytes it came from.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return x, n
}

// varint is uvarint for a zigzag-encoded signed value.
func varint(b []byte) (int64, int) {
	x, n := uvarint(b)
	return unzigzag(x), n
}

func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// Binary tuple codec — the one tuple wire format in the system, written by
// checkpoint blobs (snapshot.Encoder.PutTuple) and by remote data frames:
//
//	varint(arity) | arity × value | varint(seq)

// maxValueBytes bounds the encoding of a value other than a string's bytes:
// a kind byte and a ten-byte varint.
const maxValueBytes = 1 + binary.MaxVarintLen64

// AppendBinary appends the tuple's binary encoding to b and returns the
// extended buffer. It reserves room once, then writes by index; only a
// string's bytes reserve again.
//
//pace:hotpath
func (t Tuple) AppendBinary(b []byte) []byte {
	p := len(b)
	b = reserve(b, len(t.Values))
	p += binary.PutVarint(b[p:], int64(len(t.Values)))
	for i := range t.Values {
		v := &t.Values[i]
		b[p] = byte(v.Kind)
		p++
		switch v.Kind {
		case KindInt, KindTime, KindBool:
			p += binary.PutVarint(b[p:], v.I)
		case KindFloat:
			binary.BigEndian.PutUint64(b[p:], math.Float64bits(v.F))
			p += 8
		case KindString:
			p += binary.PutUvarint(b[p:], uint64(len(v.S)))
			b = append(b[:p], v.S...)
			p = len(b)
			b = reserve(b, len(t.Values)-i-1)
		}
	}
	return b[:p+binary.PutVarint(b[p:], t.Seq)]
}

// reserve makes room past len(b) for that many values (a string's bytes
// aside) and two varints, and returns b extended to its capacity.
func reserve(b []byte, values int) []byte {
	b = slices.Grow(b, values*maxValueBytes+2*binary.MaxVarintLen64)
	return b[:cap(b)]
}

// uvarintAt decodes the uvarint at b[p:] and returns it with the position
// after it, or a position of 0 where uvarint refuses the bytes. Encodings of
// up to three bytes, which hold every value below 2^21, decode inline.
//
//pace:hotpath
func uvarintAt(b []byte, p int) (uint64, int) {
	if p+2 < len(b) {
		if c := b[p]; c < 0x80 {
			return uint64(c), p + 1
		} else if d := b[p+1]; d < 0x80 {
			if d != 0 {
				return uint64(c&0x7f) | uint64(d)<<7, p + 2
			}
		} else if e := b[p+2]; e < 0x80 && e != 0 {
			return uint64(c&0x7f) | uint64(d&0x7f)<<7 | uint64(e)<<14, p + 3
		}
	}
	if p >= len(b) {
		return 0, 0
	}
	x, n := uvarint(b[p:])
	if n <= 0 {
		return 0, 0
	}
	return x, p + n
}

// DecodeTuple decodes one tuple of any arity from the front of b, returning
// the tuple and the remaining bytes.
func DecodeTuple(b []byte) (Tuple, []byte, error) {
	arity, n := varint(b)
	// Every value costs at least one byte, so an arity beyond the buffer is
	// corrupt and must not size an allocation.
	if n <= 0 || arity < 0 || arity > int64(len(b)-n) {
		return Tuple{}, nil, errors.New("stream: decode tuple: bad arity")
	}
	var one [1]Tuple
	run, rest, err := DecodeTuples(one[:0], nil, b, int(arity), 1)
	if err != nil {
		return Tuple{}, nil, err
	}
	return run[0], rest, nil
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
// Int and Time values of up to three varint bytes and Float values decode
// inline; the rest, and every refusal, go through decodeValue.
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
		a, q := uvarintAt(b, p)
		if q == 0 || unzigzag(a) != int64(arity) {
			return dst, nil, badArity(i, n, b[p:], arity)
		}
		p = q
		slot := vals[i*arity : (i+1)*arity : (i+1)*arity]
		for j := range slot {
			if p+3 < len(b) {
				switch kind := Kind(b[p]); kind {
				case KindInt, KindTime:
					// A varint of one to three bytes, in canonical form.
					var x uint64
					q := p + 1
					if c := b[q]; c < 0x80 {
						x, q = uint64(c), q+1
					} else if d := b[q+1]; d < 0x80 {
						if d != 0 {
							x, q = uint64(c&0x7f)|uint64(d)<<7, q+2
						}
					} else if e := b[q+2]; e < 0x80 && e != 0 {
						x, q = uint64(c&0x7f)|uint64(d&0x7f)<<7|uint64(e)<<14, q+3
					}
					if q > p+1 {
						slot[j] = Value{I: unzigzag(x), Kind: kind}
						p = q
						continue
					}
				case KindFloat:
					if p+9 <= len(b) {
						slot[j] = Value{F: math.Float64frombits(binary.BigEndian.Uint64(b[p+1:])), Kind: KindFloat}
						p += 9
						continue
					}
				}
			}
			m, err := decodeValue(&slot[j], b[p:])
			if err != nil {
				return dst, nil, badTuple(i, n, err)
			}
			p += m
		}
		seq, q := uvarintAt(b, p)
		if q == 0 {
			return dst, nil, badTuple(i, n, errBadSeq)
		}
		p = q
		dst = append(dst, Tuple{Values: slot, Seq: unzigzag(seq)})
	}
	return dst, b[p:], nil
}

var errBadSeq = errors.New("stream: decode tuple: bad sequence number")

func badTuple(i, n int, err error) error {
	return fmt.Errorf("stream: decode tuple %d of %d: %w", i, n, err)
}

// badArity says what is wrong with the arity prefix at the front of b.
func badArity(i, n int, b []byte, arity int) error {
	a, _ := varint(b)
	return fmt.Errorf("stream: decode tuple %d of %d: arity %d (%d bytes left), want %d", i, n, a, len(b), arity)
}
