package snapshot

import (
	"fmt"
	"testing"
)

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
