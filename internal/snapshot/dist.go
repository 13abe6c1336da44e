package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Distributed cuts. A plan spanning processes checkpoints as a set of
// subplans: each subplan persists its own Chain locally (MillWheel's
// per-process persistent state), and a coordinator commits a DistManifest —
// the global record "epoch N is durable in every part" — only after every
// part has acknowledged the epoch. Restore reads the newest manifest and
// loads each subplan from its own chain at the committed epoch; epochs that
// were persisted locally but never committed are truncated on restart.
//
// This file holds the storage half (DistManifest, DistLog) and the control
// wire protocol (DistMsg) the coordinator and followers speak over a
// dedicated control connection; the runtime half lives in internal/exec
// (DistCoordinator / DistFollower) and the in-band barrier forwarding in
// internal/remote.

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

// DistPart records one subplan's contribution to a committed distributed
// cut: the part name, the epoch in that part's local chain (always the
// global epoch — followers checkpoint at the coordinator's epoch number),
// and the chain id the part acknowledged (diagnostic; restore loads the epoch
// through Chain.ChainFor).
type DistPart struct {
	Part  string
	Epoch int64
	Chain string
}

// DistManifest is one committed distributed cut: every part of the plan has
// durably persisted the epoch in its local chain.
type DistManifest struct {
	Epoch int64
	Parts []DistPart
}

// distMagic opens a sealed manifest. The checksum makes a torn or bit-rotted
// manifest surface as ErrCorruptSnapshot — the signal the restore path needs
// to fall back to the previous committed head instead of treating damage as
// a coordinator bug. The generation before it, which had no checksum, is not
// read.
var distMagic = []byte("padist2\n")

// Encode serializes the manifest in a sealed frame.
func (m *DistManifest) Encode() []byte {
	return seal(distMagic, func(e *Encoder) {
		e.PutInt64(m.Epoch)
		e.PutInt(len(m.Parts))
		for _, p := range m.Parts {
			e.PutString(p.Part)
			e.PutInt64(p.Epoch)
			e.PutString(p.Chain)
		}
	})
}

// decodeDistManifest parses a manifest serialized by Encode. Every failure
// wraps ErrCorruptSnapshot.
func decodeDistManifest(data []byte) (*DistManifest, error) {
	d, err := unseal(distMagic, "distributed manifest", data)
	if err != nil {
		return nil, err
	}
	m := &DistManifest{Epoch: d.GetInt64()}
	n := d.GetInt()
	if err := d.Err(); err != nil {
		return nil, corrupted(err)
	}
	if n < 0 {
		return nil, corruptf("negative part count")
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Parts = append(m.Parts, DistPart{
			Part: d.GetString(), Epoch: d.GetInt64(), Chain: d.GetString(),
		})
	}
	if err := d.Err(); err != nil {
		return nil, corrupted(err)
	}
	if d.Remaining() != 0 {
		return nil, corruptf("manifest: %d trailing bytes", d.Remaining())
	}
	return m, nil
}

// DistLog stores committed manifests in a backend, one per epoch. It can
// share a backend with a Chain: the id formats are disjoint and both logs
// ignore foreign ids.
type DistLog struct{ epochLog }

// NewDistLog wraps a backend as a manifest log.
func NewDistLog(b Backend) *DistLog { return &DistLog{epochLog{b: b, ids: manifestIDs}} }

// Commit durably records one distributed cut. Commits must be in epoch
// order — a manifest not newer than the newest committed one indicates a
// coordinator bug (restore always resumes past the newest commit). A commit
// is a promise to every part: it returns once the backend has stored it.
func (l *DistLog) Commit(m *DistManifest) error {
	if m.Epoch <= 0 {
		return fmt.Errorf("snapshot: dist commit: non-positive epoch %d", m.Epoch)
	}
	if len(m.Parts) == 0 {
		return fmt.Errorf("snapshot: dist commit: epoch %d has no parts", m.Epoch)
	}
	_, err := l.put(m.Epoch, m.Encode())
	return err
}

// Latest loads the newest committed manifest (ok=false on an empty log).
func (l *DistLog) Latest() (*DistManifest, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head, err := l.newestLocked()
	if err != nil || head == 0 {
		return nil, false, err
	}
	m, err := l.At(head)
	if err != nil {
		return nil, false, err
	}
	return m, true, nil
}

// At loads the manifest committed for the given epoch.
func (l *DistLog) At(epoch int64) (*DistManifest, error) {
	data, err := l.get(epoch)
	if err != nil {
		return nil, err
	}
	return decodeDistManifest(data)
}

// ---------------------------------------------------------------------------
// Control wire protocol.
// ---------------------------------------------------------------------------

// DistMsgKind tags one control-connection message.
type DistMsgKind uint8

const (
	// DistHello is the follower's first message: its part name and the
	// newest epoch present in its local chain.
	DistHello DistMsgKind = iota + 1
	// DistRestore is the coordinator's handshake reply: the committed epoch
	// the follower must restore from (0 = cold start; the follower then
	// truncates any uncommitted local chain).
	DistRestore
	// DistAck reports one epoch durably persisted in the follower's chain
	// (Chain holds the storage id) — or, with Err set, why it was not.
	DistAck
	// DistCommit announces a committed epoch: every part persisted it and
	// the manifest is durable, so the follower may run local retention.
	DistCommit
)

// distMsgKindMax bounds kind validation.
const distMsgKindMax = uint8(DistCommit)

// DistMsg is one control-connection message. Unused fields are zero.
type DistMsg struct {
	Kind  DistMsgKind
	Part  string // Hello, Ack: sender's part name
	Epoch int64  // Hello: newest local epoch; Restore/Ack/Commit: the epoch
	Chain string // Ack: chain id the epoch was stored under
	Err   string // Ack: persist failure, human-readable
}

// MaxDistMsg bounds one framed control message; a length prefix beyond it
// is treated as stream corruption rather than an allocation request.
const MaxDistMsg = 1 << 20

// AppendBinary appends the message payload (without framing).
func (m DistMsg) AppendBinary(b []byte) []byte {
	e := &Encoder{buf: b}
	e.buf = append(e.buf, byte(m.Kind))
	e.PutString(m.Part)
	e.PutInt64(m.Epoch)
	e.PutString(m.Chain)
	e.PutString(m.Err)
	out, _ := e.Bytes()
	return out
}

// decodeDistMsg parses one message payload; trailing bytes are an error.
func decodeDistMsg(b []byte) (DistMsg, error) {
	if len(b) == 0 {
		return DistMsg{}, fmt.Errorf("snapshot: empty dist message")
	}
	kind := b[0]
	if kind == 0 || kind > distMsgKindMax {
		return DistMsg{}, fmt.Errorf("snapshot: unknown dist message kind %d", kind)
	}
	d := NewDecoder(b[1:])
	m := DistMsg{
		Kind:  DistMsgKind(kind),
		Part:  d.GetString(),
		Epoch: d.GetInt64(),
		Chain: d.GetString(),
		Err:   d.GetString(),
	}
	if err := d.Err(); err != nil {
		return DistMsg{}, err
	}
	if d.Remaining() != 0 {
		return DistMsg{}, fmt.Errorf("snapshot: dist message: %d trailing bytes", d.Remaining())
	}
	return m, nil
}

// WriteDistMsg frames one message onto a stream: 4-byte big-endian length,
// then the payload. Callers serialize concurrent writers.
func WriteDistMsg(w io.Writer, m DistMsg) error {
	payload := m.AppendBinary(nil)
	if len(payload) > MaxDistMsg {
		return fmt.Errorf("snapshot: dist message too large (%d bytes)", len(payload))
	}
	buf := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// ReadDistMsg reads one framed message. The length prefix is bounded by
// MaxDistMsg, and the payload buffer grows with the bytes that arrive rather
// than being sized by the prefix, so corrupt or hostile input cannot drive a
// large allocation.
func ReadDistMsg(r io.Reader) (DistMsg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return DistMsg{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxDistMsg {
		return DistMsg{}, fmt.Errorf("snapshot: dist message length %d out of bounds", n)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return DistMsg{}, err
	}
	if len(payload) != int(n) {
		return DistMsg{}, io.ErrUnexpectedEOF
	}
	return decodeDistMsg(payload)
}
