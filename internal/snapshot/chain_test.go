package snapshot

import (
	"fmt"
	"testing"
)

// mkSnap builds a tiny snapshot whose single node records its epoch, so
// which snapshot a restore loaded is observable: the blob is "b<epoch>".
func mkSnap(epoch int64) *Snapshot {
	return &Snapshot{Epoch: epoch, Nodes: []NodeState{
		{ID: 0, Name: "n", State: []byte(fmt.Sprintf("b%d", epoch))},
	}}
}

func putAll(t *testing.T, c *Chain, epochs ...int64) {
	t.Helper()
	for _, e := range epochs {
		if _, err := c.Put(mkSnap(e)); err != nil {
			t.Fatalf("put epoch %d: %v", e, err)
		}
	}
}

// blobOf renders what restoring an epoch loads.
func blobOf(t *testing.T, c *Chain, epoch int64) string {
	t.Helper()
	s, err := c.ChainFor(epoch)
	if err != nil {
		t.Fatal(err)
	}
	return string(s.Nodes[0].State)
}

// latest renders what restoring the newest stored epoch loads.
func latest(t *testing.T, c *Chain) string {
	t.Helper()
	epoch, _, err := c.LatestEpoch()
	if err != nil {
		t.Fatal(err)
	}
	return blobOf(t, c, epoch)
}

// storedEpochs lists the epochs a chain holds, oldest first.
func storedEpochs(t *testing.T, c *Chain) []int64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	es, err := c.stored()
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// TestChainForLoadsItsEpoch: every epoch restores from its own snapshot.
func TestChainForLoadsItsEpoch(t *testing.T) {
	c := NewChain(NewMemory())
	putAll(t, c, 1, 2, 3, 4, 5)
	if got := latest(t, c); got != "b5" {
		t.Fatalf("latest = %s, want b5", got)
	}
	if got := blobOf(t, c, 3); got != "b3" {
		t.Fatalf("epoch 3 = %s, want b3", got)
	}
	if _, err := c.ChainFor(9); err == nil {
		t.Fatal("an epoch never stored loads")
	}
}

// TestChainForkRequiresTruncate: a plan restored from a non-latest epoch
// resumes numbering there; its first checkpoint must not silently
// overwrite the old timeline's epochs — the chain rejects the collision
// until the operator truncates deliberately.
func TestChainForkRequiresTruncate(t *testing.T) {
	c := NewChain(NewMemory())
	putAll(t, c, 5, 6, 7)
	if _, err := c.Put(mkSnap(6)); err == nil {
		t.Fatal("timeline fork overwrote a stored epoch")
	}
	if err := c.TruncateAfter(5); err != nil {
		t.Fatal(err)
	}
	if got := latest(t, c); got != "b5" {
		t.Fatalf("after truncate: latest = %s", got)
	}
	putAll(t, c, 6, 7)
	if got := latest(t, c); got != "b7" {
		t.Fatalf("rewound timeline: latest = %s", got)
	}
}

// TestChainRetainKeepsNewest: retention below the committed head keeps the
// newest n epochs there, each restorable on its own.
func TestChainRetainKeepsNewest(t *testing.T) {
	c := NewChain(NewMemory())
	putAll(t, c, 1, 2, 3, 4, 5, 6)
	if err := c.RetainFrom(6, 4); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(storedEpochs(t, c)); got != "[3 4 5 6]" {
		t.Fatalf("after retain 4: epochs %s", got)
	}
	if got := blobOf(t, c, 3); got != "b3" {
		t.Fatalf("epoch 3 after retain = %s", got)
	}
	if err := c.RetainFrom(6, 2); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(storedEpochs(t, c)); got != "[5 6]" {
		t.Fatalf("after retain 2: epochs %s", got)
	}
	// The cache the next Put reads agrees with the backend.
	if _, err := c.Put(mkSnap(4)); err != nil {
		t.Fatalf("re-put of a collected epoch: %v", err)
	}
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
// deletions must never cost a retained epoch — only the oldest garbage goes
// first — and a re-run completes it.
func TestChainRetainCrashMidGC(t *testing.T) {
	// Total garbage when retaining 2 epochs: 1, 2, 3, 4 (4 deletions).
	for crashAfter := 0; crashAfter <= 4; crashAfter++ {
		mem := &crashingBackend{Memory: NewMemory(), deletesLeft: crashAfter}
		c := NewChain(mem)
		putAll(t, c, 1, 2, 3, 4, 5, 6)
		err := c.RetainFrom(6, 2)
		if crashAfter < 4 && err == nil {
			t.Fatalf("crashAfter=%d: expected simulated crash", crashAfter)
		}
		if got := storedEpochs(t, c); got[0] != int64(crashAfter+1) || latest(t, c) != "b6" {
			t.Fatalf("crashAfter=%d: epochs %v after the crash", crashAfter, got)
		}
		// A re-run after the crash completes the GC.
		mem.deletesLeft = 1000
		if err := c.RetainFrom(6, 2); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(storedEpochs(t, c)); got != "[5 6]" {
			t.Fatalf("crashAfter=%d: epochs %s after resumed GC", crashAfter, got)
		}
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
	// Queued behind the failing write, like retention's delete of an older
	// epoch behind a newer epoch's write: must be discarded, not applied.
	if err := a.Delete("keep"); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err == nil {
		t.Fatal("invalid id write did not surface")
	}
	if _, err := dir.Get("keep"); err != nil {
		t.Fatalf("poisoned queue applied a later delete: %v", err)
	}
	// The wrapper is poisoned: every later write and flush reports the
	// failure rather than applying writes that assumed the lost one landed.
	if err := a.Put("good", []byte("x")); err == nil {
		t.Fatal("write accepted after poison")
	}
	if err := a.Flush(); err == nil {
		t.Fatal("poison cleared by flush")
	}
	a.Close()
}
