package snapshot

import (
	"fmt"
	"strings"
	"testing"
)

// mkSnap builds a tiny snapshot whose single node records which epochs
// contributed, so chain application is observable: the base blob is
// "b<epoch>", deltas are "d<epoch>".
func mkSnap(epoch, base int64) *Snapshot {
	blob := fmt.Sprintf("b%d", epoch)
	delta := base != 0
	if delta {
		blob = fmt.Sprintf("d%d", epoch)
	}
	return &Snapshot{Epoch: epoch, Base: base, Nodes: []NodeState{
		{ID: 0, Name: "n", Delta: delta, State: []byte(blob)},
	}}
}

// chainSignature flattens a restore chain into "b2+d3+d4" form.
func chainSignature(t *testing.T, snaps []*Snapshot) string {
	t.Helper()
	var parts []string
	for _, s := range snaps {
		parts = append(parts, string(s.Nodes[0].State))
		for _, d := range s.Nodes[0].Deltas {
			parts = append(parts, string(d))
		}
	}
	return strings.Join(parts, "+")
}

func putAll(t *testing.T, c *Chain, snaps ...*Snapshot) {
	t.Helper()
	for _, s := range snaps {
		if _, err := c.Put(s); err != nil {
			t.Fatalf("put epoch %d: %v", s.Epoch, err)
		}
	}
}

func TestChainResolveLatest(t *testing.T) {
	c := NewChain(NewMemory())
	putAll(t, c, mkSnap(1, 0), mkSnap(2, 1), mkSnap(3, 2), mkSnap(4, 0), mkSnap(5, 4))
	if got := mustSig(t, c); got != "b4+d5" {
		t.Fatalf("latest chain = %s, want b4+d5", got)
	}
	// An interior epoch resolves through its own lineage.
	snaps, err := c.ChainFor(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := chainSignature(t, snaps); got != "b1+d2+d3" {
		t.Fatalf("chain for 3 = %s, want b1+d2+d3", got)
	}
}

func TestChainPutRejectsMissingParent(t *testing.T) {
	c := NewChain(NewMemory())
	if _, err := c.Put(mkSnap(2, 1)); err == nil {
		t.Fatal("delta without parent accepted")
	}
}

// TestChainForkRequiresTruncate: a plan restored from a non-latest epoch
// resumes numbering there; its first checkpoint must not silently
// overwrite the old timeline's epochs — the chain rejects the collision
// until the operator truncates deliberately.
func TestChainForkRequiresTruncate(t *testing.T) {
	c := NewChain(NewMemory())
	putAll(t, c, mkSnap(5, 0), mkSnap(6, 5), mkSnap(7, 6))
	if _, err := c.Put(mkSnap(6, 5)); err == nil {
		t.Fatal("timeline fork overwrote a stored epoch")
	}
	if err := c.TruncateAfter(5); err != nil {
		t.Fatal(err)
	}
	if got := mustSig(t, c); got != "b5" {
		t.Fatalf("after truncate: latest = %s", got)
	}
	putAll(t, c, mkSnap(6, 5), mkSnap(7, 6))
	if got := mustSig(t, c); got != "b5+d6+d7" {
		t.Fatalf("rewound timeline: latest = %s", got)
	}
}

func TestChainRetainKeepsRestorableLineage(t *testing.T) {
	c := NewChain(NewMemory())
	// Epochs 1..6: base at 1 and 4, deltas chaining in between.
	putAll(t, c, mkSnap(1, 0), mkSnap(2, 1), mkSnap(3, 2), mkSnap(4, 0), mkSnap(5, 4), mkSnap(6, 5))
	// Keeping 4 epochs (3,4,5,6): epoch 3 needs 1 and 2, so they survive
	// even though they fall outside the window.
	if err := c.Retain(4); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int64{1, 2, 3, 4, 5, 6} {
		if _, err := c.ChainFor(e); err != nil {
			t.Fatalf("epoch %d not restorable after retain: %v", e, err)
		}
	}
	// Keeping 2 epochs (5,6): the 1-2-3 lineage goes, base 4 stays.
	if err := c.Retain(2); err != nil {
		t.Fatal(err)
	}
	ids, _ := c.Backend().List()
	if len(ids) != 3 {
		t.Fatalf("after retain 2: ids = %v, want 3 (base 4 + deltas 5,6)", ids)
	}
	if got := mustSig(t, c); got != "b4+d5+d6" {
		t.Fatalf("latest after retain = %s", got)
	}
}

// mustSig renders the restore chain of the newest stored epoch.
func mustSig(t *testing.T, c *Chain) string {
	t.Helper()
	epoch, _, err := c.LatestEpoch()
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := c.ChainFor(epoch)
	if err != nil {
		t.Fatal(err)
	}
	return chainSignature(t, snaps)
}

// crashingBackend fails (and stops deleting) after a set number of deletes
// — the crash-mid-GC simulation.
type crashingBackend struct {
	*Memory
	deletesLeft int
}

func (b *crashingBackend) Delete(id string) error {
	if b.deletesLeft <= 0 {
		return fmt.Errorf("simulated crash")
	}
	b.deletesLeft--
	return b.Memory.Delete(id)
}

// TestChainRetainCrashMidGC: a GC pass interrupted after any number of
// deletions must never leave the chain unrestorable — the newest epoch's
// full lineage survives every prefix of the deletion sequence.
func TestChainRetainCrashMidGC(t *testing.T) {
	build := func() []*Snapshot {
		return []*Snapshot{mkSnap(1, 0), mkSnap(2, 1), mkSnap(3, 2), mkSnap(4, 0), mkSnap(5, 4), mkSnap(6, 5)}
	}
	// Total garbage when retaining 2 epochs: ids 1, 2, 3 (3 deletions).
	for crashAfter := 0; crashAfter <= 3; crashAfter++ {
		mem := &crashingBackend{Memory: NewMemory(), deletesLeft: crashAfter}
		c := NewChain(mem)
		putAll(t, c, build()...)
		err := c.Retain(2)
		if crashAfter < 3 && err == nil {
			t.Fatalf("crashAfter=%d: expected simulated crash", crashAfter)
		}
		if got := mustSig(t, c); got != "b4+d5+d6" {
			t.Fatalf("crashAfter=%d: latest chain = %s, want b4+d5+d6", crashAfter, got)
		}
		// A re-run after the crash completes the GC.
		mem.deletesLeft = 1000
		if err := c.Retain(2); err != nil {
			t.Fatal(err)
		}
		if got := mustSig(t, c); got != "b4+d5+d6" {
			t.Fatalf("crashAfter=%d: latest chain after resumed GC = %s", crashAfter, got)
		}
	}
}

func TestChainCompactPacksAndSurvivesCrash(t *testing.T) {
	// Crash between pack write and the covered files' deletion: both forms
	// coexist and restore prefers the pack.
	mem := &crashingBackend{Memory: NewMemory(), deletesLeft: 0}
	c := NewChain(mem)
	putAll(t, c, mkSnap(1, 0), mkSnap(2, 1), mkSnap(3, 2))
	if err := c.Compact(); err == nil {
		t.Fatal("expected simulated crash during compaction GC")
	}
	if got := mustSig(t, c); got != "b1+d2+d3" {
		t.Fatalf("after crashed compact: latest = %s", got)
	}
	// Completed compaction: one self-contained pack remains.
	mem.deletesLeft = 1000
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	ids, _ := c.Backend().List()
	if len(ids) != 1 || !strings.HasSuffix(ids[0], "-pack") {
		t.Fatalf("after compact: ids = %v, want single pack", ids)
	}
	if got := mustSig(t, c); got != "b1+d2+d3" {
		t.Fatalf("pack restore order = %s, want b1+d2+d3", got)
	}
	// Chaining continues off the pack epoch.
	putAll(t, c, mkSnap(4, 3))
	if got := mustSig(t, c); got != "b1+d2+d3+d4" {
		t.Fatalf("after delta on pack: latest = %s", got)
	}
}

func TestChainRetainAfterCompact(t *testing.T) {
	c := NewChain(NewMemory())
	putAll(t, c, mkSnap(1, 0), mkSnap(2, 1))
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	putAll(t, c, mkSnap(3, 2), mkSnap(4, 3))
	if err := c.Retain(1); err != nil {
		t.Fatal(err)
	}
	// Epoch 4 needs the pack at 2 and the delta at 3.
	if got := mustSig(t, c); got != "b1+d2+d3+d4" {
		t.Fatalf("latest = %s", got)
	}
	ids, _ := c.Backend().List()
	if len(ids) != 3 {
		t.Fatalf("ids = %v, want pack+d3+d4", ids)
	}
}

func TestAsyncBackendOrderAndErrors(t *testing.T) {
	mem := NewMemory()
	a := NewAsync(mem)
	for i := 0; i < 100; i++ {
		if err := a.Put(fmt.Sprintf("id-%03d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Delete("id-050"); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	ids, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 99 {
		t.Fatalf("len(ids) = %d, want 99", len(ids))
	}
	if _, err := a.Get("id-050"); err == nil {
		t.Fatal("deleted id still present")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("late", nil); err == nil {
		t.Fatal("put after close accepted")
	}
}

func TestAsyncBackendPoisonsAfterWriteFailure(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAsync(dir)
	if err := a.Put("keep", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("bad/id", []byte("x")); err != nil {
		t.Fatal(err) // enqueue succeeds; the failure is asynchronous
	}
	// Queued behind the failing write, like Compact's covered-file deletes
	// behind its pack write: must be discarded, not applied.
	if err := a.Delete("keep"); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err == nil {
		t.Fatal("invalid id write did not surface")
	}
	if _, err := dir.Get("keep"); err != nil {
		t.Fatalf("poisoned queue applied a later delete: %v", err)
	}
	// A lost write breaks chain lineage, so the wrapper is poisoned: every
	// later write and flush reports the failure rather than letting
	// children chain onto a hole.
	if err := a.Put("good", []byte("x")); err == nil {
		t.Fatal("write accepted after poison")
	}
	if err := a.Flush(); err == nil {
		t.Fatal("poison cleared by flush")
	}
	a.Close()
}
