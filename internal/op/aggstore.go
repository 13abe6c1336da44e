package op

import (
	"math"

	"repro/internal/stream"
)

// aggStore is the aggregate's state: the open windows in window-id order,
// each owning its groups. Every mutation of aggregate state goes through its
// methods (DESIGN.md §10.6).
//
// The window is the unit state is born in, punctuated shut in and discarded
// in: a closing window is emitted and dropped whole — no per-group delete —
// and its memory is kept for the next window to open (at most
// aggSpareWindows of them). Nothing that leaves the store — an emitted
// result, a capture — may alias a window's arena (§2.4).
type aggStore struct {
	cols  []int        // 0..k-1 for k group columns: a projected key's own
	wins  []*aggWindow // open windows, ascending wid
	spare []*aggWindow // closed windows kept for reuse
	last  *aggWindow   // the window the last upsert hit
}

// aggSpareWindows bounds the closed windows kept for reuse. One serves a
// plan that closes a window as it opens the next; the second absorbs a late
// tuple that re-opens a closed window for a moment.
const aggSpareWindows = 2

// keyMinIndex is a new key table's index size (a power of two).
const keyMinIndex = 64

// aggGroup is one (window, group) accumulator: a slot of its window's slab.
type aggGroup struct {
	count    int64
	sum      float64
	min, max float64
	// dead: purged by feedback; the slot stays as a tombstone and is never
	// used again — a later tuple for the group takes a fresh slot at the end
	// (aggWindow.intern).
	dead bool
}

var emptyGroup = aggGroup{min: math.Inf(1), max: math.Inf(-1)}

// keyTable holds rows of k key values side by side in an arena and an
// open-addressing index over them: linear probing, one word per row —
// hash<<32 | row+1, 0 for empty — in a table whose length is a power of two
// at least twice the rows. Key identity is hashKey's and sameKey's, taken
// where the key lies: a probe names a row of values and the k columns that
// hold its key — an arriving tuple and its group or join columns, or a key
// already projected and identity columns — and a key is copied into the
// arena only when its row is added. An aggWindow keeps its groups' values in
// one, a joinSide its distinct keys.
type keyTable struct {
	k     int
	n     int            // rows
	vals  []stream.Value // row i's values at [i*k, (i+1)*k)
	index []uint64
}

// key returns a row's values. It aliases the arena: read it, copy out of it,
// never keep or emit it.
func (t *keyTable) key(row int32) []stream.Value {
	return t.vals[int(row)*t.k : (int(row)+1)*t.k]
}

// aggWindow is one open window: a dense slab of groups in insertion order
// beside the table of their group values, slot for row. Slot order is the
// order the window's results, partials and captures leave in, and it is
// canonical: a twin restored from a capture holds the live groups in the same
// relative order (DESIGN.md §10.6).
type aggWindow struct {
	keyTable
	wid    int64
	groups []aggGroup
	dead   int // dead slots
}

func (w *aggWindow) live() int { return len(w.groups) - w.dead }

// hashKey hashes the key at row's columns cols under the identity
// Tuple.AppendKey encodes: the kind, and the payload bits that kind uses. A
// key hashes the same in place and projected (row[cols[i]] = key[i]).
//
//pace:hotpath
func hashKey(row []stream.Value, cols []int) uint32 {
	h := uint64(len(cols))
	for _, c := range cols {
		v := &row[c]
		var x uint64
		switch v.Kind {
		case stream.KindNull:
		case stream.KindString:
			x = 14695981039346656037
			for j := 0; j < len(v.S); j++ {
				x = (x ^ uint64(v.S[j])) * 1099511628211
			}
		case stream.KindFloat:
			x = math.Float64bits(v.F)
		default:
			x = uint64(v.I)
		}
		h = (h ^ x ^ uint64(v.Kind)<<59) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return uint32((h * 0xd6e8feb86659fd93) >> 32)
}

// sameKey reports whether a stored key and the key at row's columns cols
// are the same group: equal exactly when their Tuple.AppendKey encodings are.
//
//pace:hotpath
func sameKey(key, row []stream.Value, cols []int) bool {
	for i, c := range cols {
		x, y := &key[i], &row[c]
		if x.Kind != y.Kind {
			return false
		}
		switch x.Kind {
		case stream.KindNull:
		case stream.KindString:
			if x.S != y.S {
				return false
			}
		case stream.KindFloat:
			if math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		default:
			if x.I != y.I {
				return false
			}
		}
	}
	return true
}

// reset empties the store for group rows of k values.
func (s *aggStore) reset(k int) { *s = aggStore{cols: identCols(k)} }

// identCols lists the columns 0..k-1: those of a key already projected.
func identCols(k int) []int {
	cols := make([]int, k)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// live counts the groups held.
func (s *aggStore) live() int {
	n := 0
	for _, w := range s.wins {
		n += w.live()
	}
	return n
}

// first returns the open window with the smallest id, or nil.
func (s *aggStore) first() *aggWindow {
	if len(s.wins) == 0 {
		return nil
	}
	return s.wins[0]
}

// each ranges over the live groups, windows in id order.
func (s *aggStore) each(yield func(*aggWindow, int32) bool) {
	for _, w := range s.wins {
		for slot := range w.groups {
			if !w.groups[slot].dead && !yield(w, int32(slot)) {
				return
			}
		}
	}
}

// window finds the open window wid, or opens it. Windows open at the end of
// the list almost always; a late tuple's lands wherever its id belongs.
//
//pace:hotpath
func (s *aggStore) window(wid int64) *aggWindow {
	i := len(s.wins)
	for i > 0 && s.wins[i-1].wid > wid {
		i--
	}
	if i > 0 && s.wins[i-1].wid == wid {
		return s.wins[i-1]
	}
	var w *aggWindow
	if n := len(s.spare); n > 0 {
		w, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		w = &aggWindow{keyTable: keyTable{k: len(s.cols)}} //pace:allow-alloc amortised: a window is allocated only while fewer than aggSpareWindows have closed
	}
	w.wid = wid
	s.wins = append(s.wins, nil)
	copy(s.wins[i+1:], s.wins[i:])
	s.wins[i] = w
	return w
}

// upsert returns the accumulator of (wid, the key at vals' columns cols),
// inserting an empty one for a group not seen in that window. h is
// hashKey(vals, cols). The pointer is into the window's slab: use it before
// the next upsert.
//
//pace:hotpath
func (s *aggStore) upsert(wid int64, h uint32, vals []stream.Value, cols []int) *aggGroup {
	w := s.last
	if w == nil || w.wid != wid {
		w = s.window(wid)
		s.last = w
	}
	return &w.groups[w.intern(h, vals, cols)]
}

// lookup probes the index for the key at vals' columns cols, whose hash is
// h. It returns the key's row, or -1 and the index position an insert of it
// would take. The index must have been sized: intern does it, a table that
// holds a row has one.
//
//pace:hotpath
func (t *keyTable) lookup(h uint32, vals []stream.Value, cols []int) (row int32, at uint32) {
	mask := uint32(len(t.index) - 1)
	for at = h & mask; t.index[at] != 0; at = (at + 1) & mask {
		e := t.index[at]
		if uint32(e>>32) == h {
			if row := int32(uint32(e)) - 1; sameKey(t.key(row), vals, cols) {
				return row, at
			}
		}
	}
	return -1, at
}

// intern returns the row of the key at vals' columns cols, appending one for
// a key the table has not seen.
//
//pace:hotpath
func (t *keyTable) intern(h uint32, vals []stream.Value, cols []int) (row int32, added bool) {
	if 2*(t.n+1) > len(t.index) {
		t.grow()
	}
	row, at := t.lookup(h, vals, cols)
	if row >= 0 {
		return row, false
	}
	return t.add(at, h, vals, cols), true
}

// add appends a row for the key at vals' columns cols — the one copy of it
// the table makes — and points the index entry at — the position lookup
// returned for it, empty or the key's own — to the new row.
//
//pace:hotpath
func (t *keyTable) add(at, h uint32, vals []stream.Value, cols []int) int32 {
	row := int32(t.n)
	t.index[at] = uint64(h)<<32 | uint64(row+1)
	for _, c := range cols {
		t.vals = append(t.vals, vals[c]) //pace:allow-alloc amortised arena growth; a recycled table already has the capacity
	}
	t.n++
	return row
}

// grow doubles the index and re-places its entries; they carry their hash,
// so the arena is not read. A recycled table keeps its index and does not
// come here again until it outgrows its predecessors.
func (t *keyTable) grow() {
	old := t.index
	t.index = make([]uint64, max(2*len(old), keyMinIndex))
	mask := uint32(len(t.index) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := uint32(e>>32) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = e
	}
}

// clear empties the table and keeps its memory, zeroed so that it pins no
// strings of the rows it held.
func (t *keyTable) clear() {
	clear(t.vals)
	clear(t.index)
	t.vals, t.n = t.vals[:0], 0
}

// intern returns the slot of the live group keyed at vals' columns cols,
// appending an empty group for a key the window does not hold — one it has
// not seen, or one whose slot was purged: the tombstone keeps its place and
// the index entry is repointed to the fresh slot. A restored twin never saw
// the tombstone and appends too, so both hold the group at the end.
//
//pace:hotpath
func (w *aggWindow) intern(h uint32, vals []stream.Value, cols []int) int32 {
	if 2*(w.n+1) > len(w.index) {
		w.grow()
	}
	slot, at := w.lookup(h, vals, cols)
	if slot >= 0 && !w.groups[slot].dead {
		return slot
	}
	w.groups = append(w.groups, emptyGroup) //pace:allow-alloc amortised slab growth; a recycled window already has the capacity
	return w.add(at, h, vals, cols)
}

// purge removes one live group. Its slot becomes a tombstone.
func (w *aggWindow) purge(slot int32) {
	w.groups[slot].dead = true
	w.dead++
}

// closeFirst drops the open window with the smallest id, whole, and keeps
// its memory for a window yet to open.
//
//pace:hotpath
func (s *aggStore) closeFirst() {
	w := s.wins[0]
	n := copy(s.wins, s.wins[1:])
	s.wins[n] = nil
	s.wins = s.wins[:n]
	if s.last == w {
		s.last = nil
	}
	if len(s.spare) < aggSpareWindows {
		w.keyTable.clear() // a spare must not pin the strings of a closed window
		w.groups = w.groups[:0]
		w.dead = 0
		s.spare = append(s.spare, w)
	}
}

// restore sets the accumulator of (wid, key) to a decoded one. Groups the
// window does not hold take slots in the order they are restored, which is
// the order the capturing store held them in. The key is hashed as a fold
// hashes it in place, so later tuples of the group find it.
func (s *aggStore) restore(wid int64, key []stream.Value, acc aggGroup) (*aggWindow, int32) {
	w := s.window(wid)
	slot := w.intern(hashKey(key, s.cols), key, s.cols)
	w.groups[slot] = acc
	return w, slot
}

// aggCapture is a copy of the live groups taken at a cut that shares nothing
// with the store: the windows it was taken from may close and be reused
// before it is encoded.
type aggCapture struct {
	k      int
	wins   []aggCapWindow // ascending wid
	groups []aggGroup
	vals   []stream.Value
}

// aggCapWindow says the next n captured groups belong to window wid.
type aggCapWindow struct {
	wid int64
	n   int
}

func (c *aggCapture) key(i int32) []stream.Value { return c.vals[int(i)*c.k : (int(i)+1)*c.k] }

// capture copies the live groups, window by window in slot order.
func (s *aggStore) capture() *aggCapture {
	n := s.live()
	k := len(s.cols)
	c := &aggCapture{k: k,
		wins:   make([]aggCapWindow, 0, len(s.wins)),
		groups: make([]aggGroup, 0, n),
		vals:   make([]stream.Value, 0, n*k)}
	for _, w := range s.wins {
		before := len(c.groups)
		for slot := range w.groups {
			if g := &w.groups[slot]; !g.dead {
				c.groups = append(c.groups, *g)
				c.vals = append(c.vals, w.key(int32(slot))...)
			}
		}
		if got := len(c.groups) - before; got > 0 {
			c.wins = append(c.wins, aggCapWindow{wid: w.wid, n: got})
		}
	}
	return c
}
