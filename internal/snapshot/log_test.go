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

func mkManifest(epoch int64) *DistManifest {
	return &DistManifest{Epoch: epoch, Parts: []DistPart{{Part: "coord", Epoch: epoch, Chain: IDFor(epoch)}}}
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

// TestChainForLoadsItsEpoch: every epoch restores from its own snapshot.
func TestChainForLoadsItsEpoch(t *testing.T) {
	c := NewChain(NewMemory())
	putAll(t, c, 1, 2, 3, 4, 5)
	if epoch, ok, err := c.LatestEpoch(); err != nil || !ok || blobOf(t, c, epoch) != "b5" {
		t.Fatalf("latest epoch %d ok=%v err=%v, want 5 holding b5", epoch, ok, err)
	}
	if got := blobOf(t, c, 3); got != "b3" {
		t.Fatalf("epoch 3 = %s, want b3", got)
	}
	if _, err := c.ChainFor(9); err == nil {
		t.Fatal("an epoch never stored loads")
	}
}

// countingBackend counts List and Put calls — a List is a directory read on
// Dir — and fails every delete past a budget: the crash mid-GC or
// mid-truncate. With landed set, the failing delete still removes its entry:
// the write reached storage and only the reply was lost. A Put of the id in
// refuse fails without storing anything: a disk that loses one write.
type countingBackend struct {
	*Memory
	deletesLeft int
	landed      bool
	lists, puts int
	refuse      string
}

func (b *countingBackend) Put(id string, data []byte) error {
	b.puts++
	if id == b.refuse {
		return fmt.Errorf("disk full writing %s", id)
	}
	return b.Memory.Put(id, data)
}

func (b *countingBackend) Delete(id string) error {
	if b.deletesLeft <= 0 {
		if b.landed {
			b.Memory.Delete(id)
		}
		return fmt.Errorf("simulated crash")
	}
	b.deletesLeft--
	return b.Memory.Delete(id)
}

func (b *countingBackend) List() ([]string, error) {
	b.lists++
	return b.Memory.List()
}

// logKinds opens each of the two epoch logs over a backend, with the writer
// of its entries: Chain.Put for snapshots, DistLog.Commit for manifests.
var logKinds = []struct {
	name string
	open func(Backend) (*epochLog, func(epoch int64) error)
}{
	{"chain", func(b Backend) (*epochLog, func(int64) error) {
		c := NewChain(b)
		return &c.epochLog, func(e int64) error { _, err := c.Put(mkSnap(e)); return err }
	}},
	{"manifests", func(b Backend) (*epochLog, func(int64) error) {
		l := NewDistLog(b)
		return &l.epochLog, func(e int64) error { return l.Commit(mkManifest(e)) }
	}},
}

// TestEpochLogs pins the one store under Chain and DistLog: ordering,
// truncation, retention, a shared backend and the cached head, for both.
func TestEpochLogs(t *testing.T) {
	for _, kind := range logKinds {
		open := func(b Backend, epochs ...int64) (*epochLog, func(int64) error) {
			t.Helper()
			l, put := kind.open(b)
			for _, e := range epochs {
				if err := put(e); err != nil {
					t.Fatalf("%s: put epoch %d: %v", kind.name, e, err)
				}
			}
			return l, put
		}
		storedEpochs := func(t *testing.T, l *epochLog) string {
			t.Helper()
			es, err := l.Epochs()
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(es)
		}
		newest := func(l *epochLog) int64 {
			t.Helper()
			head, err := l.newest()
			if err != nil {
				t.Fatal(err)
			}
			return head
		}
		t.Run(kind.name+"/refuses-not-newer", func(t *testing.T) {
			mem := NewMemory()
			l, put := open(mem, 5, 6, 7)
			for _, e := range []int64{-1, 0, 6, 7} {
				if err := put(e); err == nil {
					t.Fatalf("epoch %d stored over newest 7", e)
				}
			}
			// A fresh log seeds its head from storage, also through a
			// truncate that deletes nothing.
			fresh, freshPut := kind.open(mem)
			if err := fresh.TruncateAfter(9); err != nil {
				t.Fatal(err)
			}
			if err := freshPut(3); err == nil {
				t.Fatal("a fresh log stored epoch 3 below the stored 7")
			}
			// Rewinding deliberately lets the new timeline through.
			if err := l.TruncateAfter(5); err != nil {
				t.Fatal(err)
			}
			if err := put(6); err != nil {
				t.Fatal(err)
			}
			if got := storedEpochs(t, l); got != "[5 6]" {
				t.Fatalf("rewound log holds %s", got)
			}
		})
		t.Run(kind.name+"/truncate-newest-first", func(t *testing.T) {
			// Truncating after 1 deletes 5, 4, 3, 2; the crash hits the
			// (crashAfter+1)th delete, which lands.
			for crashAfter := 0; crashAfter < 4; crashAfter++ {
				mem := &countingBackend{Memory: NewMemory(), deletesLeft: crashAfter, landed: true}
				l, put := open(mem, 1, 2, 3, 4, 5)
				if err := l.TruncateAfter(1); err == nil {
					t.Fatalf("crashAfter=%d: expected simulated crash", crashAfter)
				}
				want := int64(4 - crashAfter)
				if got := newest(l); got != want {
					t.Fatalf("crashAfter=%d: head %d after the crash, want %d reseeded", crashAfter, got, want)
				}
				mem.deletesLeft = 1000
				if err := l.TruncateAfter(1); err != nil {
					t.Fatal(err)
				}
				if err := put(2); err != nil {
					t.Fatalf("crashAfter=%d: put after the resumed truncate: %v", crashAfter, err)
				}
			}
		})
		t.Run(kind.name+"/retain-oldest-first", func(t *testing.T) {
			// Retaining 2 at or below 6 deletes 1, 2, 3, 4 in that order.
			for crashAfter := 0; crashAfter <= 4; crashAfter++ {
				mem := &countingBackend{Memory: NewMemory(), deletesLeft: crashAfter}
				l, put := open(mem, 1, 2, 3, 4, 5, 6)
				if err := l.RetainFrom(6, 2); crashAfter < 4 && err == nil {
					t.Fatalf("crashAfter=%d: expected simulated crash", crashAfter)
				}
				want := fmt.Sprint([]int64{1, 2, 3, 4, 5, 6}[crashAfter:])
				if got := storedEpochs(t, l); got != want {
					t.Fatalf("crashAfter=%d: %s after the crash, want %s", crashAfter, got, want)
				}
				mem.deletesLeft = 1000
				if err := l.RetainFrom(6, 2); err != nil {
					t.Fatal(err)
				}
				if got := storedEpochs(t, l); got != "[5 6]" {
					t.Fatalf("crashAfter=%d: %s after the resumed GC", crashAfter, got)
				}
				if err := put(7); err != nil {
					t.Fatal(err)
				}
			}
			// Entries above the committed head never push it out.
			l, _ := open(NewMemory(), 1, 2, 3, 4, 5)
			if err := l.RetainFrom(3, 0); err != nil {
				t.Fatal(err)
			}
			if err := l.RetainFrom(3, 1); err != nil {
				t.Fatal(err)
			}
			if got := storedEpochs(t, l); got != "[3 4 5]" {
				t.Fatalf("RetainFrom(3, 1) kept %s, want [3 4 5]", got)
			}
		})
		t.Run(kind.name+"/foreign-ids", func(t *testing.T) {
			mem := NewMemory()
			for _, other := range logKinds {
				if _, put := other.open(mem); other.name != kind.name {
					if err := put(9); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, id := range []string{"ckpt-001", "ep000000004-full", "ep0000000004-pack", "dm00000000004"} {
				if err := mem.Put(id, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			l, _ := open(mem, 1, 2, 3)
			if fresh, _ := kind.open(mem); newest(fresh) != 3 {
				t.Fatal("a foreign id seeded the head")
			}
			if err := l.RetainFrom(3, 2); err != nil {
				t.Fatal(err)
			}
			if err := l.TruncateAfter(2); err != nil {
				t.Fatal(err)
			}
			if got := storedEpochs(t, l); got != "[2]" {
				t.Fatalf("log holds %s, want [2]", got)
			}
			if ids, _ := mem.List(); len(ids) != 6 {
				t.Fatalf("foreign ids touched: backend holds %v", ids)
			}
		})
		t.Run(kind.name+"/refused-put-keeps-head", func(t *testing.T) {
			// Each entry is one Backend.Put. A refused one leaves the log as
			// it was, so the epoch is lost but the next one is taken.
			mem := &countingBackend{Memory: NewMemory()}
			l, put := open(mem, 1, 2)
			mem.refuse, mem.puts = l.ids.id(3), 0
			if err := put(3); err == nil {
				t.Fatal("epoch 3 stored over a refused write")
			}
			if got := newest(l); got != 2 {
				t.Fatalf("head %d after the refused put, want 2", got)
			}
			if err := put(4); err != nil {
				t.Fatalf("put after the refused one: %v", err)
			}
			if mem.puts != 2 {
				t.Fatalf("2 log puts made %d backend puts, want 2", mem.puts)
			}
			if got := storedEpochs(t, l); got != "[1 2 4]" {
				t.Fatalf("log holds %s, want [1 2 4]", got)
			}
			if fresh, _ := kind.open(mem); newest(fresh) != 4 {
				t.Fatal("a fresh log does not see epoch 4")
			}
		})
		t.Run(kind.name+"/no-list-once-seeded", func(t *testing.T) {
			mem := &countingBackend{Memory: NewMemory()}
			l, put := open(mem)
			newest(l)
			mem.lists = 0
			for e := int64(1); e <= 100; e++ {
				if err := put(e); err != nil {
					t.Fatal(err)
				}
			}
			if got := newest(l); got != 100 || mem.lists != 0 {
				t.Fatalf("after 100 puts: head %d, %d Lists, want 100 and none", got, mem.lists)
			}
		})
	}
}
