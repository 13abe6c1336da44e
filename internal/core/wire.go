package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/punct"
)

// Binary feedback codec layered on the punct.Pattern wire encoding, used by
// the network edge and the checkpoint subsystem so both serialize feedback
// identically:
//
//	intent(1) | pattern | uvarint(len)+origin | varint(hops) | varint(seq)

// AppendBinary appends the feedback's binary encoding to b and returns the
// extended buffer.
func (f Feedback) AppendBinary(b []byte) []byte {
	b = append(b, byte(f.Intent))
	b = f.Pattern.AppendBinary(b)
	b = binary.AppendUvarint(b, uint64(len(f.Origin)))
	b = append(b, f.Origin...)
	b = binary.AppendVarint(b, int64(f.Hops))
	b = binary.AppendVarint(b, f.Seq)
	return b
}

// DecodeFeedback decodes one feedback from the front of b, returning the
// feedback and the remaining bytes. An intent byte other than ¬, ? and ! is
// refused: no operator has an answer for it.
func DecodeFeedback(b []byte) (Feedback, []byte, error) {
	if len(b) == 0 {
		return Feedback{}, nil, fmt.Errorf("core: decode feedback: empty buffer")
	}
	f := Feedback{Intent: Intent(b[0])}
	if f.Intent >= numIntents {
		return Feedback{}, nil, fmt.Errorf("core: decode feedback: undefined intent %d", b[0])
	}
	var err error
	if f.Pattern, b, err = punct.DecodePattern(b[1:]); err != nil {
		return Feedback{}, nil, err
	}
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return Feedback{}, nil, fmt.Errorf("core: decode feedback: bad origin length")
	}
	f.Origin = string(b[n : n+int(l)])
	b = b[n+int(l):]
	hops, n := binary.Varint(b)
	if n <= 0 {
		return Feedback{}, nil, fmt.Errorf("core: decode feedback: bad hops")
	}
	f.Hops = int(hops)
	b = b[n:]
	seq, n := binary.Varint(b)
	if n <= 0 {
		return Feedback{}, nil, fmt.Errorf("core: decode feedback: bad seq")
	}
	f.Seq = seq
	return f, b[n:], nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The buffer must
// contain exactly one feedback.
func (f *Feedback) UnmarshalBinary(data []byte) error {
	fb, rest, err := DecodeFeedback(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: unmarshal feedback: %d trailing bytes", len(rest))
	}
	*f = fb
	return nil
}
