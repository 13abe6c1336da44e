package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"runtime/metrics"
	"testing"
)

// Goldens of the two envelopes and one control message, captured when cuts
// could still be deltas: a full cut, a manifest and an ack keep their bytes.
const (
	goldenSnapshot = "7061736e6170330a0dfbb13506000600037372630003706f73000203616767000000040473696e6b000301020300"
	goldenManifest = "706164697374320a2263490a080405636f6f726408116570303030303030303030342d66756c6c06666f6c6c6f7708116570303030303030303030342d66756c6c"
	goldenAck      = "0306666f6c6c6f7708116570303030303030303030342d66756c6c00"
	// goldenDelta is a delta cut of that build: epoch 5 on base 4, one node
	// flagged delta with one extra blob. Decode refuses it.
	goldenDelta = "7061736e6170330ab22cd1010a0802000373726301026435020178"
)

func goldenBytes(t testing.TB, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFormatGolden: a full snapshot, a manifest and a control message encode
// to the bytes they had when cuts could be deltas, and decode back.
func TestFormatGolden(t *testing.T) {
	snap := &Snapshot{Epoch: 3, Nodes: []NodeState{
		{ID: 0, Name: "src", State: []byte("pos")},
		{ID: 1, Name: "agg"},
		{ID: 2, Name: "sink", State: []byte{1, 2, 3}},
	}}
	if got := hex.EncodeToString(snap.Encode()); got != goldenSnapshot {
		t.Fatalf("snapshot bytes changed:\n got %s\nwant %s", got, goldenSnapshot)
	}
	back, err := Decode(goldenBytes(t, goldenSnapshot))
	if err != nil || !bytes.Equal(back.Encode(), snap.Encode()) {
		t.Fatalf("golden snapshot decodes to %+v, %v", back, err)
	}
	m := &DistManifest{Epoch: 4, Parts: []DistPart{{Part: "coord", Epoch: 4, Chain: IDFor(4)}, {Part: "follow", Epoch: 4, Chain: IDFor(4)}}}
	if got := hex.EncodeToString(m.Encode()); got != goldenManifest {
		t.Fatalf("manifest bytes changed:\n got %s\nwant %s", got, goldenManifest)
	}
	if _, err := decodeDistManifest(goldenBytes(t, goldenManifest)); err != nil {
		t.Fatal(err)
	}
	ack := DistMsg{Kind: DistAck, Part: "follow", Epoch: 4, Chain: IDFor(4)}
	if got := hex.EncodeToString(ack.AppendBinary(nil)); got != goldenAck {
		t.Fatalf("ack bytes changed:\n got %s\nwant %s", got, goldenAck)
	}
}

// withCRC wraps a payload in an envelope with a valid checksum, so a decoder
// reads its structure instead of stopping at the CRC.
func withCRC(magic, payload []byte) []byte {
	b := append(append([]byte(nil), magic...), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[len(magic):], crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// deltaShaped lists payloads of the shapes a delta cut wrote, each behind a
// valid checksum: a base epoch, a node's delta flag, a node's extra blobs.
func deltaShaped() map[string][]byte {
	node := func(delta bool, extra int) []byte {
		e := NewEncoder()
		e.PutInt64(5)
		e.PutInt64(0)
		e.PutInt(1)
		e.PutInt(0)
		e.PutString("n")
		e.PutBool(delta)
		e.PutBytes([]byte("x"))
		e.PutInt(extra)
		for i := 0; i < extra; i++ {
			e.PutBytes([]byte("d"))
		}
		b, _ := e.Bytes()
		return b
	}
	base := NewEncoder()
	base.PutInt64(5)
	base.PutInt64(4)
	base.PutInt(0)
	b, _ := base.Bytes()
	return map[string][]byte{
		"base epoch":  withCRC(magicV3, b),
		"delta flag":  withCRC(magicV3, node(true, 0)),
		"extra blobs": withCRC(magicV3, node(false, 2)),
	}
}

// TestDecodeRefusesDeltaCuts: a snapshot with a base epoch, a delta flag or
// extra blobs is a delta cut, which nothing can apply: Decode refuses it as
// corrupt, so a degrading restore walks past it.
func TestDecodeRefusesDeltaCuts(t *testing.T) {
	cases := deltaShaped()
	cases["golden delta"] = goldenBytes(t, goldenDelta)
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

// allocated reports the bytes fn allocates, as the runtime counts them
// without stopping the world: at span granularity for small objects, exactly
// for large ones — which is what a length prefix would size. The count is
// process-wide, so one reading also holds what the fuzzing engine's own
// goroutines allocated meanwhile; the least of three runs is fn's, and an
// allocation sized by a length prefix is in every run.
func allocated(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	least := uint64(math.MaxUint64)
	for range 3 {
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		fn()
		metrics.Read(sample)
		least = min(least, sample[0].Value.Uint64()-before)
	}
	return least
}

// allocBound is what decoding n bytes may allocate: a fixed allowance (a few
// spans of small objects) and a constant per byte received, and nothing sized
// by a length prefix.
func allocBound(n int) uint64 { return 256<<10 + 64*uint64(n) }

// FuzzSnapshotDecode feeds arbitrary bytes to the two envelope decoders, as
// they are and behind a valid checksum. Neither may panic or allocate beyond
// the bytes received, and what decodes must encode to something that decodes
// to the same.
func FuzzSnapshotDecode(f *testing.F) {
	for _, h := range []string{goldenSnapshot, goldenManifest, goldenDelta} {
		b := goldenBytes(f, h)
		f.Add(b)
		f.Add(b[len(magicV3)+4:])
		f.Add(b[:len(b)-1])
	}
	for _, b := range deltaShaped() {
		f.Add(b)
		f.Add(b[len(magicV3)+4:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRC(magicV3, data), withCRC(distMagic, data)} {
			var s *Snapshot
			var m *DistManifest
			var serr, merr error
			if n := allocated(func() {
				s, serr = Decode(in)
				m, merr = decodeDistManifest(in)
			}); n > allocBound(len(in)) {
				t.Fatalf("decoding %d bytes allocated %d", len(in), n)
			}
			if serr == nil {
				back, err := Decode(s.Encode())
				if err != nil || !bytes.Equal(back.Encode(), s.Encode()) {
					t.Fatalf("snapshot %+v does not survive a round trip: %v", s, err)
				}
			} else if !errors.Is(serr, ErrCorruptSnapshot) {
				t.Fatalf("untyped snapshot decode failure: %v", serr)
			}
			if merr == nil {
				if back, err := decodeDistManifest(m.Encode()); err != nil || !bytes.Equal(back.Encode(), m.Encode()) {
					t.Fatalf("manifest %+v does not survive a round trip: %v", m, err)
				}
			} else if !errors.Is(merr, ErrCorruptSnapshot) {
				t.Fatalf("untyped manifest decode failure: %v", merr)
			}
		}
	})
}

// FuzzDistMsg feeds arbitrary bytes to the control-message decoder, as a
// payload and as a framed stream. Nothing may panic or allocate beyond the
// bytes received — a length prefix of up to MaxDistMsg over a few bytes
// included — and what decodes must round-trip exactly.
func FuzzDistMsg(f *testing.F) {
	ack := goldenBytes(f, goldenAck)
	f.Add(ack)
	f.Add(ack[:len(ack)-1])
	f.Add(append([]byte{0, 0, 0, byte(len(ack))}, ack...))
	f.Add([]byte{0, 0x10, 0, 0, byte(DistHello)})
	f.Add(append([]byte{byte(DistHello)}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m DistMsg
		var err error
		if n := allocated(func() {
			m, err = decodeDistMsg(data)
			r := bytes.NewReader(data)
			for e := error(nil); e == nil; _, e = ReadDistMsg(r) {
			}
		}); n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err == nil {
			if back, err := decodeDistMsg(m.AppendBinary(nil)); err != nil || back != m {
				t.Fatalf("message %+v does not survive a round trip: %+v, %v", m, back, err)
			}
		}
	})
}
