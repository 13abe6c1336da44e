package op

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/stream"
)

// joinStore is the join's state: per input, the tuples waiting for partners;
// and, for the impatient join, the left keys already asked for. Every
// mutation of join state goes through a joinSide method, so the changelog
// incremental snapshots are cut from cannot miss one (DESIGN.md §7.1).
type joinStore struct {
	sides [2]joinSide // 0 = left input, 1 = right input
	// asked holds one entry per left key the impatient join has sent desired
	// feedback for: the key's values as a tuple of their own, purged like any
	// other entry once left punctuation proves the key cannot recur.
	asked joinSide
	key   []stream.Value // the arriving tuple's key, gathered; reused
}

// joinSide holds one input's entries by value in a slab in arrival order,
// chained per key from a table of the distinct keys held. Removal compacts
// the slab in place and relinks it, so nothing that leaves the store — an
// emitted result, a capture — may point into it, and no slab position
// survives a removeWhere (§2.4).
//
// Changelog, relative to the previous capture or load (the baseline). Entries
// are numbered as they arrive, so the slab is in id order and the entries
// inserted since the baseline are its suffix: a delta ships that suffix and,
// for the entries the baseline held, one watermark (purges by punctuation
// take every entry at or below a timestamp), the ids purged one by one by
// feedback, and the ids whose matched bit was set. A note is forgotten when
// the watermark passes its entry, so the changelog never outgrows the
// baseline entries the watermark has not reached, whether or not anyone
// captures: it is always on and has no cap.
type joinSide struct {
	cols    []int       // key columns of this side's tuples
	entries []joinEntry // arrival order, ascending id
	keys    keyTable    // distinct keys held
	chains  []joinChain // per key row
	minTs   int64       // lower bound on the smallest ts held

	// arena is the unused rest of the chunk arriving tuples' values are
	// copied into (keep): an entry outlives the callback that delivered its
	// tuple, whose own values are recycled with their page.
	arena []stream.Value

	nextID        int64 // id of the next entry to arrive
	baseID        int64 // entries with a smaller id were held at the baseline
	purgedThrough int64 // largest watermark purged to since the baseline; math.MinInt64 when none
	purged        []joinNote
	matched       []joinNote
}

type joinEntry struct {
	t       stream.Tuple
	ts      int64
	id      int64
	hash    uint32
	next    int32 // the key's next entry in arrival order; -1 at its last
	matched bool
}

// joinChain is the first and last entry of one key.
type joinChain struct{ head, tail int32 }

// joinNote names a baseline entry something happened to.
type joinNote struct{ id, ts int64 }

// reset empties the store. cols are the key columns of the left and the
// right input.
func (s *joinStore) reset(left, right []int) {
	asked := make([]int, len(left))
	for i := range asked {
		asked[i] = i
	}
	*s = joinStore{}
	s.sides[0].reset(left)
	s.sides[1].reset(right)
	s.asked.reset(asked)
}

// all lists the sides in the order blobs hold them.
func (s *joinStore) all() [3]*joinSide { return [3]*joinSide{&s.sides[0], &s.sides[1], &s.asked} }

// rebase makes the state as it stands the baseline of the next delta. A
// capture ends with it, and so does a restore, whose purges replay a change
// the chain already holds.
func (s *joinStore) rebase() {
	for _, side := range s.all() {
		side.baseID, side.purgedThrough, side.purged, side.matched = side.nextID, math.MinInt64, nil, nil
	}
}

func (s *joinSide) reset(cols []int) {
	*s = joinSide{cols: cols, keys: keyTable{k: len(cols)}, minTs: math.MaxInt64, purgedThrough: math.MinInt64}
}

// first returns the slab position of the oldest entry holding key, whose
// hash is h, or -1; entries[i].next walks on from it.
//
//pace:hotpath
func (s *joinSide) first(h uint32, key []stream.Value) int32 {
	if s.keys.n == 0 {
		return -1
	}
	row, _ := s.keys.lookup(h, key)
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
// the store allocates once per chunk, not per tuple.
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

// insert appends an arriving tuple, which the side owns from here on (keep);
// key is its key on this side, h the key's hash.
//
//pace:hotpath
func (s *joinSide) insert(h uint32, key []stream.Value, t stream.Tuple, ts int64, matched bool) {
	s.link(joinEntry{t: t, ts: ts, id: s.nextID, hash: h, matched: matched}, key)
	s.nextID++
}

// link puts e at the end of the slab and of its key's chain.
//
//pace:hotpath
func (s *joinSide) link(e joinEntry, key []stream.Value) {
	at := int32(len(s.entries))
	row, added := s.keys.intern(e.hash, key)
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
}

// setMatched records that the entry at slab position i has found a partner.
//
//pace:hotpath
func (s *joinSide) setMatched(i int32) {
	e := &s.entries[i]
	if e.matched {
		return
	}
	e.matched = true
	if e.id < s.baseID {
		s.matched = append(s.matched, joinNote{e.id, e.ts}) //pace:allow-alloc changelog growth, at most once per baseline entry
	}
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
	var key []stream.Value
	for i := range live {
		key = live[i].t.AppendProjected(key[:0], s.cols)
		s.link(live[i], key)
	}
	return removed
}

// purgeThrough drops every entry with ts ≤ wm — what punctuation proves can
// find no partner any more — and moves the changelog's watermark. A purge that
// can take nothing (wm below every ts held) costs one comparison and notes
// nothing: whatever the baseline held at or below wm is already gone and
// accounted for.
func (s *joinSide) purgeThrough(wm int64, victim func(*joinEntry)) {
	if wm < s.minTs {
		return
	}
	s.removeWhere(func(e *joinEntry) bool { return e.ts <= wm }, victim)
	if wm > s.purgedThrough {
		s.purgedThrough = wm
		forget := func(n joinNote) bool { return n.ts <= wm }
		s.purged = slices.DeleteFunc(s.purged, forget)
		s.matched = slices.DeleteFunc(s.matched, forget)
	}
}

// purgeWhere drops the entries doomed picks one by one (feedback) and notes
// the baseline entries among them.
func (s *joinSide) purgeWhere(doomed func(*joinEntry) bool) int {
	return s.removeWhere(doomed, func(e *joinEntry) {
		if e.id < s.baseID {
			s.purged = append(s.purged, joinNote{e.id, e.ts})
		}
	})
}

// joinSideCut is one side of a capture, or of a decoded blob: a copy that
// shares nothing with the slab it was taken from.
type joinSideCut struct {
	nextID int64
	// The changelog, in a delta only.
	purgedThrough   int64
	purged, matched []joinNote
	// Every entry held, or in a delta those inserted since the baseline.
	entries []joinEntry
}

// capture copies the side or, for a delta, its changelog and the entries
// inserted since the baseline. The caller rebases: the changelog slices now
// belong to the cut.
func (s *joinSide) capture(delta bool) joinSideCut {
	c := joinSideCut{nextID: s.nextID}
	from := 0
	if delta {
		c.purgedThrough, c.purged, c.matched = s.purgedThrough, s.purged, s.matched
		from = sort.Search(len(s.entries), func(i int) bool { return s.entries[i].id >= s.baseID })
	}
	c.entries = slices.Clone(s.entries[from:])
	return c
}

// apply replays a cut on the side: the watermark and the one-by-one purges
// take baseline entries, matched bits are set, then the cut's entries arrive.
// A full cut applied to an empty side loads it. Ids the side does not hold
// (dropped at an earlier restore, §6.3) are passed over.
func (s *joinSide) apply(c *joinSideCut) {
	slices.SortFunc(c.purged, func(a, b joinNote) int { return cmp.Compare(a.id, b.id) })
	next := 0
	s.removeWhere(func(e *joinEntry) bool {
		for next < len(c.purged) && c.purged[next].id < e.id {
			next++
		}
		return e.ts <= c.purgedThrough || next < len(c.purged) && c.purged[next].id == e.id
	}, nil)
	for _, n := range c.matched {
		i, found := sort.Find(len(s.entries), func(i int) int { return cmp.Compare(n.id, s.entries[i].id) })
		if found {
			s.entries[i].matched = true
		}
	}
	var key []stream.Value
	for i := range c.entries {
		e := c.entries[i]
		key = e.t.AppendProjected(key[:0], s.cols)
		e.hash = hashKey(key)
		s.link(e, key)
	}
	s.nextID = c.nextID
}
