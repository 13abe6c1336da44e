package snapshot

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

// Encoder builds one node's state blob. Errors are sticky: the first
// failure poisons the encoder and Bytes reports it, so Capture.Encode
// functions can chain Put calls without per-call checks.
type Encoder struct {
	buf []byte
	err error
}

// NewEncoder creates an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded blob, or the first error.
func (e *Encoder) Bytes() ([]byte, error) { return e.buf, e.err }

// PutBool appends a boolean.
func (e *Encoder) PutBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// PutInt64 appends a signed integer (zigzag varint).
func (e *Encoder) PutInt64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// PutInt appends a signed integer-sized count.
func (e *Encoder) PutInt(v int) { e.PutInt64(int64(v)) }

// PutFloat64 appends an IEEE-754 double.
func (e *Encoder) PutFloat64(v float64) {
	e.buf = stream.Float(v).AppendBinary(e.buf)
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutValue appends one stream value.
func (e *Encoder) PutValue(v stream.Value) { e.buf = v.AppendBinary(e.buf) }

// PutValues appends a counted value slice.
func (e *Encoder) PutValues(vals []stream.Value) {
	e.PutInt(len(vals))
	for _, v := range vals {
		e.PutValue(v)
	}
}

// PutTuple appends a tuple (values plus sequence number) in the shared
// tuple wire encoding.
func (e *Encoder) PutTuple(t stream.Tuple) { e.buf = t.AppendBinary(e.buf) }

// PutPattern appends a punctuation pattern in the shared wire encoding.
func (e *Encoder) PutPattern(p punct.Pattern) { e.buf = p.AppendBinary(e.buf) }

// PutFeedback appends a feedback punctuation.
func (e *Encoder) PutFeedback(f core.Feedback) { e.buf = f.AppendBinary(e.buf) }

// Decoder reads back a blob written by Encoder. Errors are sticky; callers
// check Err once after the final Get.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder wraps a blob.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left unread.
func (d *Decoder) Remaining() int { return len(d.buf) }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: decode: "+format, args...)
	}
}

// GetBool reads a boolean.
func (d *Decoder) GetBool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.fail("truncated bool")
		return false
	}
	v := d.buf[0] != 0
	d.buf = d.buf[1:]
	return v
}

// GetInt64 reads a signed integer.
func (d *Decoder) GetInt64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// GetInt reads an integer-sized count.
func (d *Decoder) GetInt() int { return int(d.GetInt64()) }

// GetCount reads an element count. Every encoded element costs at least one
// byte, so a negative count or one beyond the bytes left is corrupt: it
// poisons the decoder and reads as zero. A count it returns may size an
// allocation, which is then bounded by the bytes received.
func (d *Decoder) GetCount() int {
	n := d.GetInt64()
	if d.err == nil && (n < 0 || n > int64(len(d.buf))) {
		d.fail("count %d with %d bytes left", n, len(d.buf))
		return 0
	}
	return int(n)
}

// GetFloat64 reads a double.
func (d *Decoder) GetFloat64() float64 {
	v := d.GetValue()
	if d.err != nil {
		return 0
	}
	if v.Kind != stream.KindFloat {
		d.fail("expected float, got %v", v.Kind)
		return 0
	}
	return v.F
}

// GetString reads a length-prefixed string.
func (d *Decoder) GetString() string {
	if d.err != nil {
		return ""
	}
	l, n := binary.Uvarint(d.buf)
	if n <= 0 || uint64(len(d.buf)-n) < l {
		d.fail("bad string length")
		return ""
	}
	s := string(d.buf[n : n+int(l)])
	d.buf = d.buf[n+int(l):]
	return s
}

// GetBytes reads a length-prefixed byte slice.
func (d *Decoder) GetBytes() []byte {
	if d.err != nil {
		return nil
	}
	l, n := binary.Uvarint(d.buf)
	if n <= 0 || uint64(len(d.buf)-n) < l {
		d.fail("bad bytes length")
		return nil
	}
	b := append([]byte(nil), d.buf[n:n+int(l)]...)
	d.buf = d.buf[n+int(l):]
	return b
}

// GetValue reads one stream value.
func (d *Decoder) GetValue() stream.Value {
	if d.err != nil {
		return stream.Null
	}
	v, rest, err := stream.DecodeValue(d.buf)
	if err != nil {
		d.fail("%v", err)
		return stream.Null
	}
	d.buf = rest
	return v
}

// GetValues reads a counted value slice.
func (d *Decoder) GetValues() []stream.Value {
	n := d.GetCount()
	if d.err != nil {
		return nil
	}
	vals := make([]stream.Value, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		vals = append(vals, d.GetValue())
	}
	return vals
}

// GetTuple reads a tuple.
func (d *Decoder) GetTuple() stream.Tuple {
	if d.err != nil {
		return stream.Tuple{}
	}
	t, rest, err := stream.DecodeTuple(d.buf)
	if err != nil {
		d.fail("%v", err)
		return stream.Tuple{}
	}
	d.buf = rest
	return t
}

// GetTupleArity reads a tuple and poisons the decoder if its arity differs
// from want — a stored tuple feeds key projections and guard probes that
// index it by its stream's schema, so a mismatch must surface as a restore
// error, not a later panic.
func (d *Decoder) GetTupleArity(want int) stream.Tuple {
	t := d.GetTuple()
	if d.err == nil && t.Arity() != want {
		d.fail("tuple arity %d does not match stream arity %d (corrupt snapshot or plan drift)", t.Arity(), want)
		return stream.Tuple{}
	}
	return t
}

// GetPattern reads a punctuation pattern.
func (d *Decoder) GetPattern() punct.Pattern {
	if d.err != nil {
		return punct.Pattern{}
	}
	p, rest, err := punct.DecodePattern(d.buf)
	if err != nil {
		d.fail("%v", err)
		return punct.Pattern{}
	}
	d.buf = rest
	return p
}

// GetPatternArity reads a punctuation pattern and poisons the decoder if
// its arity differs from want — restored patterns feed index-based probe
// paths that live code guards with arity filters, so a mismatch must
// surface as a restore error, not a later panic.
func (d *Decoder) GetPatternArity(want int) punct.Pattern {
	p := d.GetPattern()
	if d.err == nil && p.Arity() != want {
		d.fail("pattern arity %d does not match stream arity %d (corrupt snapshot or plan drift)", p.Arity(), want)
		return punct.Pattern{}
	}
	return p
}

// GetFeedback reads a feedback punctuation.
func (d *Decoder) GetFeedback() core.Feedback {
	if d.err != nil {
		return core.Feedback{}
	}
	f, rest, err := core.DecodeFeedback(d.buf)
	if err != nil {
		d.fail("%v", err)
		return core.Feedback{}
	}
	d.buf = rest
	return f
}
