package snapshot

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Chain manages the checkpoints of one plan in one backend: one
// self-contained snapshot per epoch, under a storage id that encodes the
// epoch, so retention never has to load a snapshot body:
//
//	ep0000000004-full         the snapshot of epoch 4
//
// Lexical id order is epoch order. Ids of any other shape are ignored, so a
// chain can share a backend with a manifest log or ad-hoc snapshots.
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

// IDFor returns the storage id the snapshot of an epoch is stored under — the
// id a follower reports in its ack so the committed manifest records where
// each part's epoch lives.
func IDFor(epoch int64) string { return fmt.Sprintf("ep%010d-full", epoch) }

func parseChainID(id string) (int64, bool) {
	if len(id) != len("ep0000000000-full") || !strings.HasPrefix(id, "ep") || !strings.HasSuffix(id, "-full") {
		return 0, false
	}
	epoch, err := strconv.ParseInt(id[2:12], 10, 64)
	return epoch, err == nil
}

// stored lists the stored epochs in ascending order and refreshes the epoch
// cache.
func (c *Chain) stored() ([]int64, error) {
	ids, err := c.b.List()
	if err != nil {
		return nil, err
	}
	var es []int64
	c.epochs = make(map[int64]bool, len(ids))
	for _, id := range ids {
		if e, ok := parseChainID(id); ok {
			es = append(es, e)
			c.epochs[e] = true
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	return es, nil
}

// Put stores one snapshot under its epoch's id. An epoch that is already
// stored is rejected: re-numbering can only happen when a plan was restored
// from a non-latest epoch, and letting its new timeline overwrite the old
// one would mix two executions in one chain. Rewind deliberately with
// TruncateAfter before checkpointing onto an interior epoch.
func (c *Chain) Put(s *Snapshot) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epochs == nil {
		if _, err := c.stored(); err != nil {
			return "", err
		}
	}
	if c.epochs[s.Epoch] {
		return "", fmt.Errorf("snapshot: chain: epoch %d already stored (restored from a non-latest epoch? TruncateAfter first)", s.Epoch)
	}
	id := IDFor(s.Epoch)
	if err := c.b.Put(id, s.Encode()); err != nil {
		return "", err
	}
	c.epochs[s.Epoch] = true
	return id, nil
}

// TruncateAfter deletes every stored epoch newer than the given one — the
// deliberate half of restoring from a non-latest epoch. Deletion runs
// newest-first, so a crash mid-truncate leaves a prefix of the timeline.
func (c *Chain) TruncateAfter(epoch int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	es, err := c.stored()
	if err != nil {
		return err
	}
	for i := len(es) - 1; i >= 0 && es[i] > epoch; i-- {
		if err := c.b.Delete(IDFor(es[i])); err != nil {
			c.epochs = nil // partial truncate: reseed the cache on next use
			return err
		}
		delete(c.epochs, es[i])
	}
	return nil
}

// LatestEpoch reports the newest stored epoch (ok=false on an empty chain).
func (c *Chain) LatestEpoch() (epoch int64, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	es, err := c.stored()
	if err != nil || len(es) == 0 {
		return 0, false, err
	}
	return es[len(es)-1], true, nil
}

// ChainFor loads the snapshot that restores the given epoch. Its manifest
// must name the epoch its id does.
func (c *Chain) ChainFor(epoch int64) (*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := IDFor(epoch)
	s, err := load(c.b, id)
	if err != nil {
		return nil, err
	}
	if s.Epoch != epoch {
		return nil, corruptf("chain: id %q holds epoch %d", id, s.Epoch)
	}
	return s, nil
}

// Fallback records one epoch a degrading restore walked past and why it
// could not be loaded.
type Fallback struct {
	Epoch int64
	Err   error
}

// RetainFrom keeps every epoch newer than head untouched, plus the newest n
// epochs at or below head, and deletes the rest, oldest first — so a crash
// mid-GC only leaves extra garbage behind. head is the newest COMMITTED
// epoch: epochs persisted beyond it, which a restore may yet target after the
// uncommitted tail is truncated, can never push the committed cut out of the
// retention window.
func (c *Chain) RetainFrom(head int64, n int) error {
	if n <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	es, err := c.stored()
	if err != nil {
		return err
	}
	atOrBelow := sort.Search(len(es), func(i int) bool { return es[i] > head })
	for _, e := range es[:max(atOrBelow-n, 0)] {
		if err := c.b.Delete(IDFor(e)); err != nil {
			c.epochs = nil // partial GC: reseed the cache on next use
			return err
		}
		// The cache keeps the no-List fast path of the next checkpoint's Put
		// (retention runs every cycle under RunCheckpointed).
		delete(c.epochs, e)
	}
	return nil
}
