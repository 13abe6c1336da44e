package snapshot

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Chain manages a sequence of checkpoints in one backend: full (base)
// snapshots, incremental deltas chained off them, and compacted packs. The
// storage id encodes everything retention needs — epoch, kind, and (for
// deltas) the parent epoch — so GC never has to load snapshot bodies:
//
//	ep0000000004-full         base snapshot of epoch 4
//	ep0000000005-d0000000004  delta of epoch 5 on top of epoch 4
//	ep0000000007-pack         epochs up to 7 compacted into one file
//
// Lexical id order is epoch order, and within one epoch delta < full <
// pack — restore prefers the most self-contained form.
type Chain struct {
	mu sync.Mutex
	b  Backend
	// epochs caches which epochs are present so the per-checkpoint Put
	// fast path never has to List the backend (which would flush an Async
	// wrapper's write queue). Lazily seeded; invalidated by GC paths.
	epochs map[int64]bool
}

// NewChain wraps a backend as a checkpoint chain.
func NewChain(b Backend) *Chain { return &Chain{b: b} }

// Backend exposes the underlying storage.
func (c *Chain) Backend() Backend { return c.b }

// chainEntry is one parsed storage id.
type chainEntry struct {
	id    string
	epoch int64
	base  int64 // parent epoch for deltas; 0 otherwise
	kind  byte  // 'f' full, 'd' delta, 'p' pack
}

func chainID(s *Snapshot) string {
	if s.Base != 0 {
		return fmt.Sprintf("ep%010d-d%010d", s.Epoch, s.Base)
	}
	return fmt.Sprintf("ep%010d-full", s.Epoch)
}

func parseChainID(id string) (chainEntry, bool) {
	if !strings.HasPrefix(id, "ep") || len(id) < 13 {
		return chainEntry{}, false
	}
	epoch, err := strconv.ParseInt(id[2:12], 10, 64)
	if err != nil || id[12] != '-' {
		return chainEntry{}, false
	}
	rest := id[13:]
	e := chainEntry{id: id, epoch: epoch}
	switch {
	case rest == "full":
		e.kind = 'f'
	case rest == "pack":
		e.kind = 'p'
	case strings.HasPrefix(rest, "d") && len(rest) == 11:
		base, err := strconv.ParseInt(rest[1:], 10, 64)
		if err != nil {
			return chainEntry{}, false
		}
		e.kind, e.base = 'd', base
	default:
		return chainEntry{}, false
	}
	return e, true
}

// entries lists parsed chain ids in epoch order (foreign ids are ignored,
// so a chain can share a backend with ad-hoc snapshots) and refreshes the
// epoch cache.
func (c *Chain) entries() ([]chainEntry, error) {
	ids, err := c.b.List()
	if err != nil {
		return nil, err
	}
	var es []chainEntry
	c.epochs = make(map[int64]bool, len(ids))
	for _, id := range ids {
		if e, ok := parseChainID(id); ok {
			es = append(es, e)
			c.epochs[e.epoch] = true
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].epoch != es[j].epoch {
			return es[i].epoch < es[j].epoch
		}
		return es[i].kind < es[j].kind // 'd' < 'f' < 'p'
	})
	return es, nil
}

// epochSet returns the present-epoch cache, seeding it from the backend
// on first use.
func (c *Chain) epochSet() (map[int64]bool, error) {
	if c.epochs == nil {
		if _, err := c.entries(); err != nil {
			return nil, err
		}
	}
	return c.epochs, nil
}

// best returns, per epoch, the most self-contained entry (pack > full >
// delta, which is the last in the sorted order).
func bestByEpoch(es []chainEntry) map[int64]chainEntry {
	m := make(map[int64]chainEntry, len(es))
	for _, e := range es {
		m[e.epoch] = e // sorted: later kinds overwrite earlier
	}
	return m
}

// Put stores one snapshot under its chain id. A snapshot with Base != 0
// requires its parent epoch to already be present, and an epoch that is
// already stored is rejected: re-numbering can only happen when a plan
// was restored from a non-latest epoch, and letting its new timeline
// overwrite the old one would leave the chain's surviving later deltas
// chained onto state from a different execution. Rewind deliberately with
// TruncateAfter before checkpointing onto an interior epoch.
func (c *Chain) Put(s *Snapshot) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	epochs, err := c.epochSet()
	if err != nil {
		return "", err
	}
	if s.Base != 0 && !epochs[s.Base] {
		return "", fmt.Errorf("snapshot: chain: delta epoch %d chains to missing epoch %d", s.Epoch, s.Base)
	}
	if epochs[s.Epoch] {
		return "", fmt.Errorf("snapshot: chain: epoch %d already stored (restored from a non-latest epoch? TruncateAfter first)", s.Epoch)
	}
	id := chainID(s)
	if err := c.b.Put(id, s.Encode()); err != nil {
		return "", err
	}
	epochs[s.Epoch] = true
	return id, nil
}

// TruncateAfter deletes every stored epoch newer than the given one — the
// deliberate half of restoring from a non-latest epoch. Deletion runs
// newest-first so a crash mid-truncate never leaves a surviving epoch
// without its parent lineage.
func (c *Chain) TruncateAfter(epoch int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	es, err := c.entries()
	if err != nil {
		return err
	}
	for i := len(es) - 1; i >= 0; i-- {
		e := es[i]
		if e.epoch <= epoch {
			break
		}
		if err := c.b.Delete(e.id); err != nil {
			c.epochs = nil // partial truncate: reseed the cache on next use
			return err
		}
		delete(c.epochs, e.epoch)
	}
	return nil
}

// LatestEpoch reports the newest stored epoch (ok=false on an empty chain).
func (c *Chain) LatestEpoch() (epoch int64, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	es, err := c.entries()
	if err != nil || len(es) == 0 {
		return 0, false, err
	}
	return es[len(es)-1].epoch, true, nil
}

// resolve walks id metadata from epoch back to a self-contained snapshot
// and returns the restore order (base first).
func resolve(byEpoch map[int64]chainEntry, epoch int64) ([]chainEntry, error) {
	var rev []chainEntry
	seen := map[int64]bool{}
	for {
		e, ok := byEpoch[epoch]
		if !ok {
			return nil, fmt.Errorf("snapshot: chain: epoch %d missing (broken chain — retention bug or foreign deletion)", epoch)
		}
		if seen[epoch] {
			return nil, fmt.Errorf("snapshot: chain: cycle at epoch %d", epoch)
		}
		seen[epoch] = true
		rev = append(rev, e)
		if e.kind != 'd' {
			break
		}
		epoch = e.base
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// ChainFor loads the snapshots needed to restore the given epoch, base
// first. Every snapshot's Epoch/Base cross-links are validated against the
// id metadata.
func (c *Chain) ChainFor(epoch int64) ([]*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	es, err := c.entries()
	if err != nil {
		return nil, err
	}
	order, err := resolve(bestByEpoch(es), epoch)
	if err != nil {
		return nil, err
	}
	snaps := make([]*Snapshot, len(order))
	for i, e := range order {
		s, err := load(c.b, e.id)
		if err != nil {
			return nil, err
		}
		if s.Epoch != e.epoch || (e.kind == 'd') != (s.Base != 0) {
			return nil, corruptf("chain: id %q does not match its manifest (epoch %d base %d)", e.id, s.Epoch, s.Base)
		}
		snaps[i] = s
	}
	return snaps, nil
}

// Fallback records one epoch a degrading restore walked past and why its
// chain could not be loaded.
type Fallback struct {
	Epoch int64
	Err   error
}

// Retain keeps the newest n epochs — plus every older snapshot one of them
// needs to restore — and deletes the rest. Deletion runs oldest-first, so
// a crash mid-GC can only leave extra garbage behind, never a retained
// epoch without its chain: the needed set is computed before the first
// delete and is itself never touched.
func (c *Chain) Retain(n int) error {
	return c.RetainFrom(int64(^uint64(0)>>1), n)
}

// RetainFrom keeps every epoch newer than head untouched, plus the newest
// n epochs at or below head (and their restore need-sets), deleting the
// rest. It is the commit-aware retention for distributed followers: head
// is the newest COMMITTED epoch, so epochs persisted beyond it — which a
// restore may yet target after the uncommitted tail is truncated — can
// never push the committed cut out of the retention window.
func (c *Chain) RetainFrom(head int64, n int) error {
	if n <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	es, err := c.entries()
	if err != nil {
		return err
	}
	var epochs []int64 // distinct epochs ≤ head, ascending
	need := map[string]bool{}
	byEpoch := bestByEpoch(es)
	for _, e := range es {
		if e.epoch > head {
			// Beyond the head: keep unconditionally, with full lineage (it
			// may chain through epochs below the head).
			order, err := resolve(byEpoch, e.epoch)
			if err != nil {
				return err
			}
			for _, o := range order {
				need[o.id] = true
			}
			continue
		}
		if len(epochs) == 0 || epochs[len(epochs)-1] != e.epoch {
			epochs = append(epochs, e.epoch)
		}
	}
	if len(epochs) > n {
		epochs = epochs[len(epochs)-n:]
	}
	for _, keep := range epochs {
		order, err := resolve(byEpoch, keep)
		if err != nil {
			return err
		}
		for _, e := range order {
			need[e.id] = true
		}
	}
	for _, e := range es { // ascending epoch: oldest garbage first
		if need[e.id] {
			continue
		}
		if err := c.b.Delete(e.id); err != nil {
			c.epochs = nil // partial GC: reseed the cache on next use
			return err
		}
	}
	// Rebuild the cache from the survivors so the next checkpoint's Put
	// keeps its no-List fast path (Retain runs every cycle under
	// RunCheckpointed).
	c.epochs = make(map[int64]bool, len(need))
	for _, e := range es {
		if need[e.id] {
			c.epochs[e.epoch] = true
		}
	}
	return nil
}

// Compact packs the newest epoch's restore chain into one self-contained
// snapshot and deletes the files it covers. The pack is written (and, for
// durable backends, synced) before any covered file is deleted, so a crash
// anywhere in between leaves at least one complete restore path; restore
// prefers the pack when both survive.
func (c *Chain) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Deletions (including partial ones on error) stale the epoch cache.
	defer func() { c.epochs = nil }()
	es, err := c.entries()
	if err != nil || len(es) == 0 {
		return err
	}
	last := es[len(es)-1].epoch
	packID := fmt.Sprintf("ep%010d-pack", last)
	// Resolve the pre-pack lineage: the entries a pack replaces. A pack
	// from a crashed earlier compaction is excluded so its covered files
	// are found (and finally deleted) on re-run; if they are already gone,
	// there is nothing to do.
	byEpoch := make(map[int64]chainEntry, len(es))
	havePack := false
	for _, e := range es {
		if e.epoch == last && e.kind == 'p' {
			havePack = true
			continue
		}
		if prev, ok := byEpoch[e.epoch]; !ok || e.kind > prev.kind {
			byEpoch[e.epoch] = e
		}
	}
	order, err := resolve(byEpoch, last)
	if err != nil {
		if havePack {
			return nil // previous compaction completed; only the pack remains
		}
		return err
	}
	if !havePack {
		if len(order) == 1 && order[0].kind != 'd' {
			return nil // already self-contained
		}
		snaps := make([]*Snapshot, len(order))
		for i, e := range order {
			s, lerr := load(c.b, e.id)
			if lerr != nil {
				return lerr
			}
			snaps[i] = s
		}
		merged, merr := MergeChain(snaps)
		if merr != nil {
			return merr
		}
		if err := c.b.Put(packID, merged.Encode()); err != nil {
			return err
		}
	}
	// The pack is durably in place; the covered lineage is now garbage.
	for _, e := range order {
		if err := c.b.Delete(e.id); err != nil {
			return err
		}
	}
	return nil
}

// MergeChain folds a base-first snapshot chain into one self-contained
// snapshot: per node, a full segment resets the accumulated list and delta
// segments append (restore applies them in order via ApplyDelta).
func MergeChain(snaps []*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("snapshot: merge: empty chain")
	}
	if !snaps[0].IsFull() {
		return nil, fmt.Errorf("snapshot: merge: chain does not start at a full snapshot")
	}
	first := snaps[0]
	merged := &Snapshot{Epoch: snaps[len(snaps)-1].Epoch}
	merged.Nodes = make([]NodeState, len(first.Nodes))
	for i, ns := range first.Nodes {
		merged.Nodes[i] = NodeState{ID: ns.ID, Name: ns.Name, State: ns.State,
			Deltas: append([][]byte(nil), ns.Deltas...)}
	}
	for _, s := range snaps[1:] {
		if len(s.Nodes) != len(merged.Nodes) {
			return nil, fmt.Errorf("snapshot: merge: epoch %d has %d nodes, chain start has %d",
				s.Epoch, len(s.Nodes), len(merged.Nodes))
		}
		for i, ns := range s.Nodes {
			m := &merged.Nodes[i]
			if ns.ID != m.ID || ns.Name != m.Name {
				return nil, fmt.Errorf("snapshot: merge: node %d drifted across the chain (%q vs %q)", i, ns.Name, m.Name)
			}
			if ns.Delta {
				if len(ns.State) > 0 {
					m.Deltas = append(m.Deltas, ns.State)
				}
			} else {
				m.State, m.Deltas = ns.State, nil
			}
			m.Deltas = append(m.Deltas, ns.Deltas...)
		}
	}
	return merged, nil
}
