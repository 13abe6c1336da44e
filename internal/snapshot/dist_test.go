package snapshot

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// randString draws arbitrary bytes (not just ASCII) of bounded length.
func randString(rng *rand.Rand, max int) string {
	b := make([]byte, rng.Intn(max+1))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randDistMsg(rng *rand.Rand) DistMsg {
	return DistMsg{
		Kind:  DistMsgKind(1 + rng.Intn(int(distMsgKindMax))),
		Part:  randString(rng, 24),
		Epoch: rng.Int63n(1<<40) - 1,
		Chain: randString(rng, 32),
		Err:   randString(rng, 64),
	}
}

// TestDistMsgRoundTrip is the property test for the control wire frames:
// every randomly drawn message survives framing → parsing structurally
// intact, including over a stream carrying several messages back to back.
func TestDistMsgRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		m := randDistMsg(rng)
		got, err := decodeDistMsg(m.AppendBinary(nil))
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		if got != m {
			t.Fatalf("iteration %d: round trip changed message: %+v -> %+v", i, m, got)
		}
	}
	// Stream framing: several messages over one connection.
	var buf bytes.Buffer
	var want []DistMsg
	for i := 0; i < 50; i++ {
		m := randDistMsg(rng)
		want = append(want, m)
		if err := WriteDistMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range want {
		got, err := ReadDistMsg(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got != m {
			t.Fatalf("message %d changed in flight: %+v -> %+v", i, m, got)
		}
	}
	if _, err := ReadDistMsg(&buf); err != io.EOF {
		t.Fatalf("drained stream returned %v, want EOF", err)
	}
}

// TestDistMsgCorrupt fuzzes the payload decoder with truncations and byte
// flips of valid encodings: every outcome must be a clean error or a valid
// message — never a panic — and oversized or zero length prefixes must be
// rejected before any allocation happens.
func TestDistMsgCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		raw := randDistMsg(rng).AppendBinary(nil)
		switch rng.Intn(3) {
		case 0: // truncate
			raw = raw[:rng.Intn(len(raw))]
		case 1: // flip a byte
			raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
		default: // append garbage
			raw = append(raw, byte(rng.Intn(256)))
		}
		_, _ = decodeDistMsg(raw) // must not panic; error or valid both fine
	}
	if _, err := decodeDistMsg(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := decodeDistMsg([]byte{0xee}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Length prefix beyond MaxDistMsg: rejected without reading the body.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxDistMsg+1)
	if _, err := ReadDistMsg(bytes.NewReader(hdr[:])); err == nil || strings.Contains(err.Error(), "EOF") {
		t.Errorf("oversized length prefix not rejected by bound check: %v", err)
	}
	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, err := ReadDistMsg(bytes.NewReader(hdr[:])); err == nil {
		t.Error("zero length prefix accepted")
	}
	// A huge declared string length inside a small payload must error, not
	// allocate: kind byte + maxed-out uvarint for Part's length.
	huge := append([]byte{byte(DistHello)}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := decodeDistMsg(huge); err == nil {
		t.Error("huge declared string length accepted")
	}
}

// TestDistManifestRoundTrip covers the manifest codec the same way.
func TestDistManifestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		m := &DistManifest{Epoch: 1 + rng.Int63n(1<<40)}
		for p := 0; p < rng.Intn(5); p++ {
			m.Parts = append(m.Parts, DistPart{
				Part: randString(rng, 16), Epoch: m.Epoch, Chain: randString(rng, 24),
			})
		}
		raw := m.Encode()
		got, err := decodeDistManifest(raw)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got.Epoch != m.Epoch || len(got.Parts) != len(m.Parts) {
			t.Fatalf("iteration %d: round trip changed manifest", i)
		}
		for j := range m.Parts {
			if got.Parts[j] != m.Parts[j] {
				t.Fatalf("iteration %d: part %d changed: %+v -> %+v", i, j, m.Parts[j], got.Parts[j])
			}
		}
		// Corruption must never panic.
		mut := append([]byte(nil), raw...)
		mut = mut[:rng.Intn(len(mut))]
		_, _ = decodeDistManifest(mut)
	}
	if _, err := decodeDistManifest([]byte("not a manifest")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := decodeDistManifest(append((&DistManifest{Epoch: 1, Parts: []DistPart{{Part: "a"}}}).Encode(), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestDistLog pins what the manifest log adds to the epoch store (TestEpochLogs):
// commit validation and the newest manifest, also through a fresh log.
func TestDistLog(t *testing.T) {
	b := NewMemory()
	log := NewDistLog(b)
	if _, ok, err := log.Latest(); err != nil || ok {
		t.Fatalf("empty log: ok=%v err=%v", ok, err)
	}
	if err := log.Commit(&DistManifest{Epoch: 0, Parts: []DistPart{{Part: "a"}}}); err == nil {
		t.Fatal("epoch 0 committed")
	}
	if err := log.Commit(&DistManifest{Epoch: 1}); err == nil {
		t.Fatal("partless manifest committed")
	}
	for ep := int64(1); ep <= 5; ep++ {
		m := &DistManifest{Epoch: ep, Parts: []DistPart{
			{Part: "coord", Epoch: ep, Chain: IDFor(ep)},
			{Part: "follow", Epoch: ep, Chain: IDFor(ep)},
		}}
		if err := log.Commit(m); err != nil {
			t.Fatalf("commit %d: %v", ep, err)
		}
	}
	for _, l := range []*DistLog{log, NewDistLog(b)} {
		m, ok, err := l.Latest()
		if err != nil || !ok || m.Epoch != 5 || m.Parts[1].Chain != IDFor(5) {
			t.Fatalf("latest: %+v ok=%v err=%v", m, ok, err)
		}
	}
}

// TestIDFor pins the exported id helper against the chain's own naming.
func TestIDFor(t *testing.T) {
	if got := IDFor(4); got != "ep0000000004-full" {
		t.Fatalf("id %q", got)
	}
	if e, ok := chainIDs.parse(IDFor(7)); !ok || e != 7 {
		t.Fatal("IDFor output not parseable by the chain")
	}
	for _, foreign := range []string{"ep0000000005-d0000000004", "ep0000000007-pack", "dm0000000004", "ep000000004-full"} {
		if _, ok := chainIDs.parse(foreign); ok {
			t.Errorf("%q parsed as a chain id", foreign)
		}
	}
}
