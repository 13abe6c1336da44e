package op

import (
	"math"

	"repro/internal/stream"
	"repro/internal/window"
)

// joinSide holds one input's entries by value in a slab in arrival order,
// chained per key from a table of the distinct keys held. Removal compacts
// the slab in place and relinks it, so nothing that leaves the side — an
// emitted result, a capture — may point into it, and no slab position
// survives a removeWhere (§2.4).
type joinSide struct {
	cols    []int       // key columns of this side's tuples
	entries []joinEntry // arrival order
	keys    keyTable    // distinct keys held
	chains  []joinChain // per key row
	minTs   int64       // lower bound on the smallest ts held

	// arena is the unused rest of the chunk arriving tuples' values are
	// copied into (keep): an entry outlives the callback that delivered its
	// tuple, whose own values are recycled with their page.
	arena []stream.Value
}

type joinEntry struct {
	t       stream.Tuple
	ts      int64
	hash    uint32
	next    int32 // the key's next entry in arrival order; -1 at its last
	matched bool
}

// joinChain is the first and last entry of one key.
type joinChain struct{ head, tail int32 }

func (s *joinSide) reset(cols []int) {
	*s = joinSide{cols: cols, keys: keyTable{k: len(cols)}, minTs: math.MaxInt64}
}

// first returns the slab position of the oldest entry holding the key at
// vals' columns cols, whose hash is h, or -1; entries[i].next walks on from
// it. The key is matched where it lies: a probing tuple and its own side's
// key columns.
//
//pace:hotpath
func (s *joinSide) first(h uint32, vals []stream.Value, cols []int) int32 {
	if s.keys.n == 0 {
		return -1
	}
	row, _ := s.keys.lookup(h, vals, cols)
	if row < 0 {
		return -1
	}
	return s.chains[row].head
}

// joinArenaValues sizes the chunks keep copies into, and so what one entry
// that outlives its neighbours can pin.
const joinArenaValues = 512

// keep returns a copy of t that the side owns: an input tuple's values are
// only good until the callback that delivered it returns, and an entry stays
// until punctuation or feedback purges it. Copies are carved from a chunk, so
// the side allocates once per chunk, not per tuple.
//
//pace:hotpath
func (s *joinSide) keep(t stream.Tuple) stream.Tuple {
	n := len(t.Values)
	if len(s.arena) < n {
		s.arena = make([]stream.Value, max(n, joinArenaValues)) //pace:allow-alloc one chunk per joinArenaValues values retained: the copy is the state
	}
	vals := s.arena[:n:n]
	s.arena = s.arena[n:]
	copy(vals, t.Values)
	return stream.Tuple{Values: vals, Seq: t.Seq}
}

// link puts e at the end of the slab and of its key's chain: the key at this
// side's columns of e's tuple, whose hash is e.hash. An arriving tuple's
// entry holds the side's own copy of it (keep). It reports whether the side
// held no entry of the key before.
//
//pace:hotpath
func (s *joinSide) link(e joinEntry) bool {
	at := int32(len(s.entries))
	row, added := s.keys.intern(e.hash, e.t.Values, s.cols)
	if added {
		s.chains = append(s.chains, joinChain{head: at, tail: at}) //pace:allow-alloc amortised growth, one chain per distinct key held
	} else {
		c := &s.chains[row]
		s.entries[c.tail].next = at
		c.tail = at
	}
	e.next = -1
	s.entries = append(s.entries, e) //pace:allow-alloc amortised slab growth: every arriving tuple is retained, the entry is the state
	s.minTs = min(s.minTs, e.ts)
	return added
}

// firstWindowFrom returns the first window of spec from w on that an entry
// lies in, or math.MaxInt64 if none does.
func (s *joinSide) firstWindowFrom(spec *window.Spec, w int64) int64 {
	first := int64(math.MaxInt64)
	for i := range s.entries {
		if lo, hi := spec.WindowsOf(s.entries[i].ts); hi >= w {
			first = min(first, max(lo, w))
		}
	}
	return first
}

// removeWhere drops the entries doomed picks, handing each to victim first
// (when there is one), in arrival order, and returns how many went. It is the
// one walk every purge shares — by punctuation, by feedback, on restore.
func (s *joinSide) removeWhere(doomed func(*joinEntry) bool, victim func(*joinEntry)) int {
	kept, minTs := 0, int64(math.MaxInt64)
	for i := range s.entries {
		e := &s.entries[i]
		if doomed(e) {
			if victim != nil {
				victim(e)
			}
			continue
		}
		minTs = min(minTs, e.ts)
		s.entries[kept] = *e
		kept++
	}
	s.minTs = minTs
	removed := len(s.entries) - kept
	if removed == 0 {
		return 0
	}
	// Relink the survivors: positions moved and keys may have gone.
	clear(s.entries[kept:])
	live := s.entries[:kept]
	s.entries, s.chains = s.entries[:0], s.chains[:0]
	s.keys.clear()
	for i := range live {
		s.link(live[i])
	}
	return removed
}

// purgeThrough drops every entry with ts ≤ wm — what punctuation proves can
// find no partner any more. A purge that can take nothing (wm below every ts
// held) costs one comparison.
func (s *joinSide) purgeThrough(wm int64, victim func(*joinEntry)) {
	if wm < s.minTs {
		return
	}
	s.removeWhere(func(e *joinEntry) bool { return e.ts <= wm }, victim)
}

// load links decoded entries, in arrival order, onto an emptied side.
func (s *joinSide) load(entries []joinEntry) {
	for i := range entries {
		e := entries[i]
		e.hash = hashKey(e.t.Values, s.cols)
		s.link(e)
	}
}
