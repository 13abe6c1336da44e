package queue

import (
	"testing"

	"repro/internal/stream"
)

// TestSlabRecycledByLastAdoptingPage: a slab whose tuples went out on two
// pages is held by the producer until it moves on and by each page until that
// page is released; only the last release recycles it.
func TestSlabRecycledByLastAdoptingPage(t *testing.T) {
	var a Aliases
	c := New(Options{PageSize: 1, Depth: 4})
	c.BindAliases(&a)
	a.Begin(nil)
	vals := a.Get(2)
	s := a.open
	vals[0], vals[1] = stream.Int(7), stream.Int(8)
	c.PutTuple(stream.Tuple{Values: vals[0:1:1]})
	c.PutTuple(stream.Tuple{Values: vals[1:2:2]})
	if got := s.refs.Load(); got != 3 {
		t.Fatalf("refs with the producer and two pages holding it: %d, want 3", got)
	}
	a.End()
	p1, _ := c.Recv()
	p2, _ := c.Recv()
	Release(p1)
	if got := s.refs.Load(); got != 1 {
		t.Fatalf("refs after the producer and one page let go: %d, want 1", got)
	}
	if v := p2.Items[0].Tuple.Values[0]; v != stream.Int(8) {
		t.Fatalf("tuple on the page still held reads %v", v)
	}
	Release(p2)
	if got := s.refs.Load(); got != 0 {
		t.Fatalf("refs after the last page: %d, want 0", got)
	}
	// Under the race build tag the recycled slab is a sentinel, so a reader
	// that kept a tuple fails loudly; without the tag nothing is written.
	probe := []stream.Value{stream.Int(1)}
	poison(probe)
	if poisoned := probe[0].Kind == 0xFF; poisoned != (s.values[0].Kind == 0xFF) || (!poisoned && s.values[0] != stream.Int(7)) {
		t.Errorf("recycled slab reads %v (race build: %v)", s.values[0], poisoned)
	}
}

// TestSlabAdoptedOncePerPageAndSet: adoption is by page and set, not by
// tuple, and a forwarded input page's slabs travel on.
func TestSlabAdoptedOncePerPageAndSet(t *testing.T) {
	var up, down Aliases
	c1 := New(Options{PageSize: 8})
	c1.BindAliases(&up)
	up.Begin(nil)
	vals := up.Get(4)
	s := up.open
	for i := range vals {
		vals[i] = stream.Int(int64(i))
		c1.PutTuple(stream.Tuple{Values: vals[i : i+1 : i+1]})
	}
	up.End()
	c1.CloseSend()
	in, _ := c1.Recv()
	if len(in.slabs) != 1 || s.refs.Load() != 1 {
		t.Fatalf("four tuples of one slab on one page: %d adoptions, %d refs, want 1 and 1", len(in.slabs), s.refs.Load())
	}
	// A routing consumer forwards two of them by header.
	c2 := New(Options{PageSize: 8})
	c2.BindAliases(&down)
	down.Begin(in)
	c2.PutTuple(in.Items[1].Tuple)
	c2.PutTuple(in.Items[3].Tuple)
	down.End()
	Release(in)
	c2.CloseSend()
	out, _ := c2.Recv()
	if s.refs.Load() != 1 {
		t.Fatalf("refs with only the forwarding page holding the slab: %d, want 1", s.refs.Load())
	}
	if got := out.Items[1].Tuple.Values[0]; got != stream.Int(3) {
		t.Fatalf("forwarded tuple reads %v after its first page was released", got)
	}
	Release(out)
	if s.refs.Load() != 0 {
		t.Fatalf("refs after every page: %d, want 0", s.refs.Load())
	}
}

// TestSlabSizeClasses: a request is served from its power-of-two class, a
// slab too large for any class is allocated and never pooled, and both
// counters move.
func TestSlabSizeClasses(t *testing.T) {
	gets0, misses0 := SlabStats()
	for _, n := range []int{0, 1, 16, 17, 96, 768, 1 << maxSlabClass} {
		s := getSlab(n)
		if len(s.values) < n || len(s.values) != 1<<s.class || (n > 16 && len(s.values) >= 2*n) {
			t.Errorf("getSlab(%d): %d values in class %d", n, len(s.values), s.class)
		}
		s.release()
	}
	big := getSlab(1<<maxSlabClass + 1)
	if big.class != -1 || len(big.values) != 1<<maxSlabClass+1 {
		t.Errorf("oversized slab: class %d, %d values", big.class, len(big.values))
	}
	big.release()
	gets, misses := SlabStats()
	if gets-gets0 != 8 || misses-misses0 < 1 || misses-misses0 > 8 {
		t.Errorf("counters moved by %d gets and %d misses", gets-gets0, misses-misses0)
	}
}
