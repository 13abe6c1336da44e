package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// distMagic guards manifest decoding against arbitrary files and, like the
// snapshot format, carries a CRC-32C of the payload so a torn or bit-rotted
// manifest surfaces as ErrCorruptSnapshot — the signal the restore path needs
// to fall back to the previous committed head instead of treating damage as a
// coordinator bug. The generation before it, which had no checksum, is not
// read.
var distMagic = []byte("padist2\n")

// Encode serializes the manifest: magic, CRC-32C of the payload
// (little-endian), then the payload.
func (m *DistManifest) Encode() []byte {
	e := NewEncoder()
	e.buf = append(e.buf, distMagic...)
	e.buf = append(e.buf, 0, 0, 0, 0) // crc placeholder, patched below
	e.PutInt64(m.Epoch)
	e.PutInt(len(m.Parts))
	for _, p := range m.Parts {
		e.PutString(p.Part)
		e.PutInt64(p.Epoch)
		e.PutString(p.Chain)
	}
	b, _ := e.Bytes() // the encoder has no failing paths
	crc := crc32.Checksum(b[len(distMagic)+4:], crcTable)
	binary.LittleEndian.PutUint32(b[len(distMagic):], crc)
	return b
}

// decodeDistManifest parses a manifest serialized by Encode. Every failure
// wraps ErrCorruptSnapshot.
func decodeDistManifest(data []byte) (*DistManifest, error) {
	if len(data) < len(distMagic)+4 || string(data[:len(distMagic)]) != string(distMagic) {
		return nil, corruptf("not a distributed manifest (bad magic)")
	}
	want := binary.LittleEndian.Uint32(data[len(distMagic):])
	data = data[len(distMagic)+4:]
	if got := crc32.Checksum(data, crcTable); got != want {
		return nil, corruptf("manifest checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	d := NewDecoder(data)
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

// DistLog stores committed manifests in a backend, one per epoch, under ids
// lexically ordered by epoch (dm0000000004). It can share a backend with a
// Chain — the id namespaces are disjoint and both sides ignore foreign ids.
// The newest committed epoch is cached after the first backend List, so the
// per-epoch Commit and poll-heavy Latest (supervisors watch it for
// progress) stay off the shared backend's directory listing.
type DistLog struct {
	mu     sync.Mutex
	b      Backend
	head   int64 // newest committed epoch; 0 = none
	seeded bool
}

// NewDistLog wraps a backend as a manifest log.
func NewDistLog(b Backend) *DistLog { return &DistLog{b: b} }

// headLocked returns the newest committed epoch (0 = none), seeding the
// cache from the backend on first use.
func (l *DistLog) headLocked() (int64, error) {
	if !l.seeded {
		es, err := l.epochsLocked()
		if err != nil {
			return 0, err
		}
		if len(es) > 0 {
			l.head = es[len(es)-1]
		}
		l.seeded = true
	}
	return l.head, nil
}

func distID(epoch int64) string { return fmt.Sprintf("dm%010d", epoch) }

func parseDistID(id string) (int64, bool) {
	if !strings.HasPrefix(id, "dm") || len(id) != 12 {
		return 0, false
	}
	epoch, err := strconv.ParseInt(id[2:], 10, 64)
	if err != nil {
		return 0, false
	}
	return epoch, true
}

// epochsLocked lists committed epochs in ascending order.
func (l *DistLog) epochsLocked() ([]int64, error) {
	ids, err := l.b.List()
	if err != nil {
		return nil, err
	}
	var es []int64
	for _, id := range ids {
		if e, ok := parseDistID(id); ok {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	return es, nil
}

// Commit durably records one distributed cut. Commits must be in epoch
// order — a manifest older than the newest committed one indicates a
// coordinator bug (restore always resumes past the newest commit).
func (l *DistLog) Commit(m *DistManifest) error {
	if m.Epoch <= 0 {
		return fmt.Errorf("snapshot: dist commit: non-positive epoch %d", m.Epoch)
	}
	if len(m.Parts) == 0 {
		return fmt.Errorf("snapshot: dist commit: epoch %d has no parts", m.Epoch)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	head, err := l.headLocked()
	if err != nil {
		return err
	}
	if m.Epoch <= head {
		return fmt.Errorf("snapshot: dist commit: epoch %d not newer than committed %d", m.Epoch, head)
	}
	if err := l.b.Put(distID(m.Epoch), m.Encode()); err != nil {
		return err
	}
	if f, ok := l.b.(Flusher); ok {
		// A write-behind backend has only enqueued the write; a commit is a
		// promise to every part, so it must be durable before returning.
		if err := f.Flush(); err != nil {
			return err
		}
	}
	l.head = m.Epoch
	return nil
}

// Latest loads the newest committed manifest (ok=false on an empty log).
func (l *DistLog) Latest() (*DistManifest, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head, err := l.headLocked()
	if err != nil || head == 0 {
		return nil, false, err
	}
	data, err := l.b.Get(distID(head))
	if err != nil {
		return nil, false, err
	}
	m, err := decodeDistManifest(data)
	if err != nil {
		return nil, false, err
	}
	return m, true, nil
}

// Epochs lists the committed epochs in ascending order.
func (l *DistLog) Epochs() ([]int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epochsLocked()
}

// At loads the manifest committed for the given epoch.
func (l *DistLog) At(epoch int64) (*DistManifest, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := l.b.Get(distID(epoch))
	if err != nil {
		return nil, err
	}
	return decodeDistManifest(data)
}

// TruncateAfter deletes every committed manifest newer than the given
// epoch — the manifest-log half of restoring from a non-newest commit.
// Without it, a run resumed from an older cut would re-commit epochs the
// log already holds and every commit would fail the ascending-order check.
// Deletion runs newest-first so a crash mid-truncate never leaves a gap
// below a surviving manifest.
func (l *DistLog) TruncateAfter(epoch int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.headLocked(); err != nil {
		return err
	}
	es, err := l.epochsLocked()
	if err != nil {
		return err
	}
	for i := len(es) - 1; i >= 0; i-- {
		if es[i] <= epoch {
			break
		}
		if err := l.b.Delete(distID(es[i])); err != nil {
			l.seeded = false // partial truncate: reseed the head on next use
			return err
		}
		l.head = 0
		if i > 0 {
			l.head = es[i-1]
		}
	}
	return nil
}

// Retain keeps the newest n manifests and deletes the rest (oldest first,
// so a crash mid-GC never loses the newest commit).
func (l *DistLog) Retain(n int) error {
	if n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	es, err := l.epochsLocked()
	if err != nil || len(es) <= n {
		return err
	}
	for _, e := range es[:len(es)-n] {
		if err := l.b.Delete(distID(e)); err != nil {
			return err
		}
	}
	return nil
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
