// Package snapshot is the punctuation-aligned checkpoint subsystem: the
// serialized form of a consistent cut through a running plan, plus the
// pluggable storage it persists to.
//
// The mechanism is the paper's own coordination primitive turned inward:
// a checkpoint barrier is an in-band marker that every source injects at
// one point of its stream, and a multi-input operator's state is captured
// exactly when every live input has delivered the barrier — the same
// alignment rule the partitioned Merge applies to embedded punctuation
// (DESIGN.md §5.1), here enforced by the runtime for a marker that must
// not be reordered past data. Tuples in flight *behind* a barrier are
// deliberately not captured: sources save their replay position at the
// cut, so restore regenerates them (exactly-once for deterministic
// sources).
//
// The runtime half lives in internal/exec (the checkpoint coordinator, barrier
// alignment in the node runner); this package holds everything
// the runtime serializes: the per-node Stater contract, the state
// encoder/decoder, guard-table persistence, the snapshot manifest, and
// the storage backends.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorruptSnapshot is wrapped by every decode failure that indicates the
// stored bytes are damaged (truncation, bit rot, torn write) rather than
// the caller holding a wrong id or the plan having drifted. Restore paths
// test for it with errors.Is to decide between degrading to an older epoch
// and failing loudly: corruption is a storage fault the chain can fall
// back across, anything else is a bug that must surface.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// corruptf builds an error wrapping ErrCorruptSnapshot.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("snapshot: "+format+": %w", append(args, ErrCorruptSnapshot)...)
}

// corrupted marks an existing decode error as corruption.
func corrupted(err error) error {
	return fmt.Errorf("%w: %w", err, ErrCorruptSnapshot)
}

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64 and
// arm64), shared by snapshot and manifest checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// seal frames the payload write encodes, for both stored formats: magic,
// CRC-32C of the payload (little-endian), then the payload. The checksum
// makes bit rot and torn writes on weaker backends surface as
// ErrCorruptSnapshot when an entry is read — before a restore commits to its
// epoch — instead of as silently wrong state.
func seal(magic []byte, write func(*Encoder)) []byte {
	e := NewEncoder()
	e.buf = append(append(e.buf, magic...), 0, 0, 0, 0) // crc patched below
	write(e)
	b, _ := e.Bytes() // the encoder has no failing paths
	binary.LittleEndian.PutUint32(b[len(magic):], crc32.Checksum(b[len(magic)+4:], crcTable))
	return b
}

// unseal checks a frame seal wrote with the given magic and returns a
// decoder over its payload. what names the format in errors, which wrap
// ErrCorruptSnapshot.
func unseal(magic []byte, what string, data []byte) (*Decoder, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != string(magic) {
		return nil, corruptf("not a %s (bad magic)", what)
	}
	payload := data[len(magic)+4:]
	want := binary.LittleEndian.Uint32(data[len(magic):])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, corruptf("%s checksum mismatch (stored %08x, computed %08x)", what, want, got)
	}
	return NewDecoder(payload), nil
}

// NodeState is one node's contribution to a snapshot.
type NodeState struct {
	// ID is the node's position in the plan (exec.NodeID); restore
	// requires the rebuilt plan to assign the same ids, i.e. to be built
	// by the same construction order.
	ID int
	// Name is the node's operator/source name, validated on restore so a
	// drifted plan fails loudly instead of loading state into the wrong
	// operator.
	Name string
	// State is the blob the node's Stater wrote (empty for stateless
	// nodes, which are recorded for plan-shape validation only).
	State []byte
}

// Snapshot is one consistent cut of a plan. It restores on its own: every
// cut is full (DESIGN.md §7).
type Snapshot struct {
	// Epoch is the checkpoint's sequence number within the run that took
	// it (monotonically increasing per graph).
	Epoch int64
	// Nodes holds per-node state in node-id order.
	Nodes []NodeState
}

// magicV3 opens a sealed snapshot. It is the only generation read: the two
// before it had no checksum, so nothing stood between a blob of theirs and
// an operator's LoadState.
//
// The payload keeps three slots the delta cuts of an earlier build used — a
// base epoch, and per node a delta flag and a count of extra blobs — written
// as zeros so a full cut keeps its bytes; Decode refuses anything else there.
var magicV3 = []byte("pasnap3\n")

// Encode serializes the snapshot in a sealed frame.
func (s *Snapshot) Encode() []byte {
	return seal(magicV3, func(e *Encoder) {
		e.PutInt64(s.Epoch)
		e.PutInt64(0) // base epoch
		e.PutInt(len(s.Nodes))
		for _, n := range s.Nodes {
			e.PutInt(n.ID)
			e.PutString(n.Name)
			e.PutBool(false) // delta flag
			e.PutBytes(n.State)
			e.PutInt(0) // extra blobs
		}
	})
}

// Decode parses a snapshot serialized by Encode. Every failure wraps
// ErrCorruptSnapshot: the frame is not this format's or its checksum
// disagrees with the payload, the payload is structurally damaged, or it is
// a delta cut (a base epoch, a delta flag or extra blobs), which nothing here
// can apply.
func Decode(data []byte) (*Snapshot, error) {
	d, err := unseal(magicV3, "snapshot", data)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Epoch: d.GetInt64()}
	base := d.GetInt64()
	n := d.GetCount()
	if d.Err() != nil {
		return nil, corrupted(d.Err())
	}
	if base != 0 {
		return nil, corruptf("epoch %d is a delta on epoch %d", s.Epoch, base)
	}
	for i := 0; i < n; i++ {
		ns := NodeState{ID: d.GetInt(), Name: d.GetString()}
		delta := d.GetBool()
		ns.State = d.GetBytes()
		extra := d.GetInt()
		if d.Err() != nil {
			return nil, corrupted(d.Err())
		}
		if delta || extra != 0 {
			return nil, corruptf("node %q of epoch %d holds a delta", ns.Name, s.Epoch)
		}
		s.Nodes = append(s.Nodes, ns)
	}
	if d.Remaining() != 0 {
		return nil, corruptf("%d trailing bytes", d.Remaining())
	}
	return s, nil
}
