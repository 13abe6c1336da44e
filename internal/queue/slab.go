package queue

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// Slab is the value memory behind a run of rebuilt tuples: the tuples' Values
// are sub-slices of one Slab. It is reference-counted and recycled. The
// references are held by whoever drew it (getSlab) and by every page that
// adopted it because it carries tuples aliasing it; the last release puts it
// back in the pool, after which its values are overwritten by the next run.
type Slab struct {
	values []stream.Value
	refs   atomic.Int32
	class  int8 // size class, -1 when too large to pool
}

const (
	// Slabs are pooled in power-of-two size classes from 16 values (a run of
	// a few narrow tuples) to 64Ki values; a larger request is allocated and
	// never pooled.
	minSlabClass = 4
	maxSlabClass = 16
)

var (
	slabPools            [maxSlabClass + 1]sync.Pool
	slabGets, slabMisses atomic.Int64
)

// getSlab draws a slab holding at least n values; the caller owns one
// reference. The values are whatever the slab's previous run left there: the
// caller overwrites every value it hands out.
//
//pace:hotpath
func getSlab(n int) *Slab {
	slabGets.Add(1)
	size, class := n, int8(-1)
	if c := max(bits.Len(uint(max(n, 1)-1)), minSlabClass); c <= maxSlabClass {
		if s, _ := slabPools[c].Get().(*Slab); s != nil {
			s.refs.Store(1)
			return s
		}
		size, class = 1<<c, int8(c)
	}
	slabMisses.Add(1)
	s := &Slab{values: make([]stream.Value, size), class: class} //pace:allow-alloc a pool miss: the slab is recycled from here on
	s.refs.Store(1)
	return s
}

// release drops one reference. The last one recycles the slab: every tuple
// aliasing it is dead from here on.
//
//pace:hotpath
func (s *Slab) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	poison(s.values)
	if s.class >= 0 {
		slabPools[s.class].Put(s)
	}
}

// SlabStats reports, process-wide, how many slabs were requested and how many
// of those requests the pool could not serve (a fresh allocation).
func SlabStats() (gets, misses int64) { return slabGets.Load(), slabMisses.Load() }

// Aliases is one producer's record of the slabs the tuples it is putting may
// alias: those of the input page it is processing, and the slab it last drew.
// Every page that receives a tuple while a set is current adopts the whole
// set (Conn.PutTuple[s]), so a slab outlives every page holding a tuple built
// in it, and a tuple forwarded by header — select, split, merge, union,
// duplicate — keeps its slab alive with no copy. The node runner owns one
// Aliases per node, binds it to the node's output connections and moves it
// from activation to activation; it is used by that goroutine only.
type Aliases struct {
	// stamp changes with the set; a page remembers the stamp it adopted
	// under, so adoption costs one comparison per put.
	stamp uint64
	slabs []*Slab // the input page's slabs, then the open one
	open  *Slab   // the slab last drawn, held until the next Get or Begin
}

// Begin starts an activation: whatever is put from now on may alias the slabs
// of input (nil for a source) and nothing drawn before.
//
//pace:hotpath
func (a *Aliases) Begin(input *Page) {
	if a.open == nil && len(a.slabs) == 0 && (input == nil || len(input.slabs) == 0) {
		return
	}
	if a.open != nil {
		a.open.release()
		a.open = nil
	}
	a.slabs = a.slabs[:0]
	if input != nil {
		a.slabs = append(a.slabs, input.slabs...)
	}
	a.stamp++
}

// End finishes the activation: the input page is about to be released.
func (a *Aliases) End() { a.Begin(nil) }

// Get draws a slab of at least n values for tuples the caller builds and puts
// before it calls Get again or the activation ends: the slab drawn before is
// retired — the pages holding its tuples have adopted it — and pages filled
// from now on adopt this one.
//
//pace:hotpath
func (a *Aliases) Get(n int) []stream.Value {
	s := getSlab(n)
	if a.open != nil {
		a.open.release()
		a.slabs = a.slabs[:len(a.slabs)-1]
	}
	a.open = s
	a.slabs = append(a.slabs, s)
	a.stamp++
	return s.values[:n]
}
