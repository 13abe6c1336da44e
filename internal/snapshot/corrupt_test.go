package snapshot

import (
	"errors"
	"fmt"
	"testing"
)

// Every way a stored blob can be damaged must surface as
// ErrCorruptSnapshot — the typed signal restore paths use to degrade to an
// older epoch instead of treating damage as a bug.
func TestDecodeCorruptionIsTyped(t *testing.T) {
	blob := mkSnap(3).Encode()
	cases := map[string][]byte{
		"bad magic": []byte("not a snapshot at all"),
		"empty":     {},
		"truncated": blob[:len(blob)-3],
		"torn head": blob[:len(magicV3)+2],
		// The generations written before the checksum are no longer read: a
		// decoder with no CRC in front of it is how a stale operator layout
		// would reach a LoadState.
		"pasnap2": append([]byte("pasnap2\n"), blob[len(magicV3)+4:]...),
		"pasnap1": append([]byte("pasnap1\n"), blob[len(magicV3)+4:]...),
	}
	for i := 0; i < 8; i++ {
		mut := append([]byte(nil), blob...)
		bit := (i*7 + 1) % (len(mut) * 8)
		mut[bit/8] ^= 1 << (bit % 8)
		cases[fmt.Sprintf("bit flip %d", bit)] = mut
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
	if _, err := Decode(blob); err != nil {
		t.Fatalf("pristine blob: %v", err)
	}
}

// A corrupt snapshot fails ChainFor with the typed error — the signal a
// degrading restore walks past on — for its own epoch and for no other:
// every epoch restores on its own.
func TestChainForCorruptionIsTyped(t *testing.T) {
	mem := NewMemory()
	c := NewChain(mem)
	putAll(t, c, 1, 2, 3)
	// Damage epoch 3 in place, and replace epoch 1 with garbage.
	blob, err := mem.Get(IDFor(3))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := mem.Put(IDFor(3), blob); err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(IDFor(1), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int64{1, 3} {
		if _, err := c.ChainFor(e); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("ChainFor(%d) over a damaged snapshot: err = %v, want typed corruption", e, err)
		}
	}
	if got := blobOf(t, c, 2); got != "b2" {
		t.Fatalf("intact epoch 2 = %s", got)
	}
	// A snapshot stored under another epoch's id is damage too.
	if err := mem.Put(IDFor(4), mkSnap(2).Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChainFor(4); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("ChainFor(4) over epoch 2's snapshot: err = %v, want typed corruption", err)
	}
}

// Manifest damage must also be typed; so is a manifest of the generation
// written before the checksum, which is no longer read.
func TestManifestCorruptionIsTyped(t *testing.T) {
	m := &DistManifest{Epoch: 4, Parts: []DistPart{{Part: "coord", Epoch: 4, Chain: "ep0000000004-full"}}}
	blob := m.Encode()
	for name, data := range map[string][]byte{
		"truncated": blob[:len(blob)-2],
		"bit flip":  append(append([]byte(nil), blob[:len(blob)-1]...), blob[len(blob)-1]^1),
		"garbage":   []byte("dm but not really"),
		"padist1":   append([]byte("padist1\n"), blob[len(distMagic)+4:]...),
	} {
		if _, err := decodeDistManifest(data); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

// A crash mid-commit leaves a torn manifest; recovery must land on the
// previous committed head and, after truncating the torn tail, be able to
// re-commit the epoch.
func TestDistLogTornManifestRecovery(t *testing.T) {
	mem := NewMemory()
	log := NewDistLog(mem)
	commit := func(l *DistLog, epoch int64) {
		t.Helper()
		if err := l.Commit(&DistManifest{Epoch: epoch,
			Parts: []DistPart{{Part: "coord", Epoch: epoch, Chain: IDFor(epoch)}}}); err != nil {
			t.Fatalf("commit %d: %v", epoch, err)
		}
	}
	commit(log, 1)
	commit(log, 2)
	// Simulate the crash: epoch 3's manifest reaches storage torn.
	torn := (&DistManifest{Epoch: 3,
		Parts: []DistPart{{Part: "coord", Epoch: 3, Chain: IDFor(3)}}}).Encode()
	if err := mem.Put(manifestIDs.id(3), torn[:len(torn)-4]); err != nil {
		t.Fatal(err)
	}

	// A fresh log (the restarted coordinator) must degrade to epoch 2.
	fresh := NewDistLog(mem)
	if _, err := fresh.At(3); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("At(3) on the torn manifest: err = %v, want typed corruption", err)
	}
	if m, err := fresh.At(2); err != nil || m.Epoch != 2 {
		t.Fatalf("At(2) = %+v err=%v, want the intact epoch-2 manifest", m, err)
	}

	// Restoring from epoch 2 truncates the torn tail, after which epoch 3
	// commits cleanly (no ascending-order collision with the torn ghost).
	if err := fresh.TruncateAfter(2); err != nil {
		t.Fatal(err)
	}
	commit(fresh, 3)
	if got := newest(t, fresh); got == nil || got.Epoch != 3 {
		t.Fatalf("after recovery: newest manifest = %+v, want epoch 3", got)
	}
}
