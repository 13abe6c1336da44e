package punct

import (
	"encoding/binary"
	"fmt"

	"repro/internal/stream"
)

// Binary pattern codec: the single wire encoding for punctuation patterns,
// shared by the network edge (internal/remote frames) and the checkpoint
// subsystem (internal/snapshot). The format is versioned and
// self-delimiting so patterns embed directly in larger frames:
//
//	version(1) | uvarint(arity) | pred...
//	pred: op(1) | payload   (payload per Op: none for Any/IsNull; Val for
//	      comparisons; Val+Hi for Between; uvarint(n)+values for In)

// wireVersion tags the pattern encoding; bump on incompatible change.
const wireVersion = 1

// AppendBinary appends the pattern's binary encoding to b and returns the
// extended buffer.
func (p Pattern) AppendBinary(b []byte) []byte {
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, uint64(len(p.preds)))
	for _, pr := range p.preds {
		b = append(b, byte(pr.Op))
		switch pr.Op {
		case Any, IsNull:
		case Between:
			b = pr.Val.AppendBinary(b)
			b = pr.Hi.AppendBinary(b)
		case In:
			b = binary.AppendUvarint(b, uint64(len(pr.Set)))
			for _, v := range pr.Set {
				b = v.AppendBinary(b)
			}
		default:
			b = pr.Val.AppendBinary(b)
		}
	}
	return b
}

// DecodePattern decodes one pattern from the front of b, returning the
// pattern and the remaining bytes.
func DecodePattern(b []byte) (Pattern, []byte, error) {
	if len(b) < 2 {
		return Pattern{}, nil, fmt.Errorf("punct: decode pattern: short buffer")
	}
	if b[0] != wireVersion {
		return Pattern{}, nil, fmt.Errorf("punct: decode pattern: unsupported version %d", b[0])
	}
	b = b[1:]
	arity, n := binary.Uvarint(b)
	if n <= 0 {
		return Pattern{}, nil, fmt.Errorf("punct: decode pattern: bad arity")
	}
	b = b[n:]
	// Every pred costs at least one byte, so an arity beyond the buffer is
	// corrupt; checking before make keeps hostile wire input from forcing
	// a huge allocation (this path decodes untrusted remote frames).
	if arity > uint64(len(b)) {
		return Pattern{}, nil, fmt.Errorf("punct: decode pattern: arity %d exceeds %d remaining bytes", arity, len(b))
	}
	preds := make([]Pred, arity)
	for i := range preds {
		if len(b) == 0 {
			return Pattern{}, nil, fmt.Errorf("punct: decode pattern: truncated at pred %d", i)
		}
		op := Op(b[0])
		b = b[1:]
		pr := Pred{Op: op}
		var err error
		switch op {
		case Any, IsNull:
		case Between:
			if pr.Val, b, err = stream.DecodeValue(b); err != nil {
				return Pattern{}, nil, err
			}
			if pr.Hi, b, err = stream.DecodeValue(b); err != nil {
				return Pattern{}, nil, err
			}
		case In:
			cnt, n := binary.Uvarint(b)
			if n <= 0 {
				return Pattern{}, nil, fmt.Errorf("punct: decode pattern: bad In-set length")
			}
			b = b[n:]
			if cnt > uint64(len(b)) {
				return Pattern{}, nil, fmt.Errorf("punct: decode pattern: In-set of %d exceeds %d remaining bytes", cnt, len(b))
			}
			pr.Set = make([]stream.Value, cnt)
			for j := range pr.Set {
				if pr.Set[j], b, err = stream.DecodeValue(b); err != nil {
					return Pattern{}, nil, err
				}
			}
		case EQ, NE, LT, LE, GT, GE:
			if pr.Val, b, err = stream.DecodeValue(b); err != nil {
				return Pattern{}, nil, err
			}
		default:
			return Pattern{}, nil, fmt.Errorf("punct: decode pattern: unknown op %d", op)
		}
		preds[i] = pr
	}
	return Pattern{preds: preds}, b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The buffer must
// contain exactly one pattern.
func (p *Pattern) UnmarshalBinary(data []byte) error {
	pat, rest, err := DecodePattern(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("punct: unmarshal pattern: %d trailing bytes", len(rest))
	}
	*p = pat
	return nil
}
