package snapshot

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// idFormat names the entries of one epoch log: a prefix, the epoch in ten
// zero-padded digits, a suffix. Lexical id order is epoch order.
type idFormat struct{ prefix, suffix string }

var (
	chainIDs    = idFormat{"ep", "-full"} // ep0000000004-full: the snapshot of epoch 4
	manifestIDs = idFormat{"dm", ""}      // dm0000000004: the manifest committing epoch 4
)

func (f idFormat) id(epoch int64) string { return fmt.Sprintf("%s%010d%s", f.prefix, epoch, f.suffix) }

// parse reads the epoch out of an id of this format; ids of any other shape
// are foreign.
func (f idFormat) parse(id string) (int64, bool) {
	n := len(f.prefix)
	if len(id) != n+10+len(f.suffix) || !strings.HasPrefix(id, f.prefix) || !strings.HasSuffix(id, f.suffix) {
		return 0, false
	}
	epoch, err := strconv.ParseInt(id[n:n+10], 10, 64)
	return epoch, err == nil
}

// epochLog is the store under both of a plan's logs, the snapshot Chain and
// the manifest DistLog: one entry per epoch in a backend, under an id that
// encodes the epoch, so listing, truncation and retention never load an
// entry. Ids of other formats are ignored, so both logs (and ad-hoc blobs)
// can share one backend. Epochs are positive and strictly ascending.
//
// The newest stored epoch is cached after the first List, so the per-epoch
// put and the poll-heavy latest lookups stay off the backend's listing (a
// directory read on Dir). A put is one Backend.Put, made on the goroutine
// that waits for it — a checkpoint's phase-2 finisher or the coordinator's
// checkpoint loop — never on a node's: a slow disk delays the commit, not
// the stream.
type epochLog struct {
	mu     sync.Mutex
	b      Backend
	ids    idFormat
	head   int64 // newest stored epoch, 0 = none; valid while seeded
	seeded bool
}

// listLocked lists the stored epochs in ascending order and reseeds the head.
func (l *epochLog) listLocked() ([]int64, error) {
	ids, err := l.b.List()
	if err != nil {
		return nil, err
	}
	var es []int64
	for _, id := range ids {
		if e, ok := l.ids.parse(id); ok {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	l.head, l.seeded = 0, true
	if len(es) > 0 {
		l.head = es[len(es)-1]
	}
	return es, nil
}

// newest returns the newest stored epoch (0 = none), listing the backend
// only while the cache is unseeded.
func (l *epochLog) newest() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.newestLocked()
}

func (l *epochLog) newestLocked() (int64, error) {
	if !l.seeded {
		if _, err := l.listLocked(); err != nil {
			return 0, err
		}
	}
	return l.head, nil
}

// put stores one epoch's entry. An epoch that is not newer than the newest
// stored one is refused: it can only come from a run resumed at an older
// epoch, and letting that timeline overwrite the stored one would mix two
// executions in one log — rewind deliberately with TruncateAfter first.
func (l *epochLog) put(epoch int64, data []byte) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head, err := l.newestLocked()
	if err != nil {
		return "", err
	}
	id := l.ids.id(epoch)
	if epoch <= head {
		return "", fmt.Errorf("snapshot: put %s: epoch %d not newer than stored epoch %d (TruncateAfter to rewind)", id, epoch, head)
	}
	if err := l.b.Put(id, data); err != nil {
		return "", err
	}
	l.head = epoch
	return id, nil
}

// get reads the entry stored for an epoch.
func (l *epochLog) get(epoch int64) ([]byte, error) { return l.b.Get(l.ids.id(epoch)) }

// Epochs lists the stored epochs in ascending order.
func (l *epochLog) Epochs() ([]int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.listLocked()
}

// TruncateAfter deletes every stored epoch newer than the given one — the
// deliberate half of restoring from an older epoch. Deletion runs
// newest-first, so a crash mid-truncate leaves a prefix of the log, never a
// gap below a surviving entry.
func (l *epochLog) TruncateAfter(epoch int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	es, err := l.listLocked()
	if err != nil {
		return err
	}
	for i := len(es) - 1; i >= 0 && es[i] > epoch; i-- {
		if err := l.b.Delete(l.ids.id(es[i])); err != nil {
			l.seeded = false // partial truncate: reseed the head on next use
			return err
		}
		l.head = 0
		if i > 0 {
			l.head = es[i-1]
		}
	}
	return nil
}

// RetainFrom keeps every epoch newer than head, plus the newest n epochs at
// or below it, and deletes the rest, oldest first — so a crash mid-GC only
// leaves extra garbage behind, and the newest entry is never deleted. head
// is the newest COMMITTED epoch: entries persisted beyond it, which a
// restore may yet target after the uncommitted tail is truncated, can never
// push the committed cut out of the window. On the manifest log head is its
// newest entry.
func (l *epochLog) RetainFrom(head int64, n int) error {
	if n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	es, err := l.listLocked()
	if err != nil {
		return err
	}
	atOrBelow := sort.Search(len(es), func(i int) bool { return es[i] > head })
	for _, e := range es[:max(atOrBelow-n, 0)] {
		if err := l.b.Delete(l.ids.id(e)); err != nil {
			return err
		}
	}
	return nil
}

// Chain is the checkpoint log of one plan (or one part of a distributed
// plan): one self-contained snapshot per epoch.
type Chain struct{ epochLog }

// NewChain wraps a backend as a checkpoint chain.
func NewChain(b Backend) *Chain { return &Chain{epochLog{b: b, ids: chainIDs}} }

// Backend exposes the underlying storage.
func (c *Chain) Backend() Backend { return c.b }

// IDFor returns the storage id the snapshot of an epoch is stored under — the
// id a follower reports in its ack so the committed manifest records where
// each part's epoch lives.
func IDFor(epoch int64) string { return chainIDs.id(epoch) }

// Put stores one snapshot under its epoch's id; the epoch must be newer than
// every stored one.
func (c *Chain) Put(s *Snapshot) (string, error) { return c.put(s.Epoch, s.Encode()) }

// LatestEpoch reports the newest stored epoch (ok=false on an empty chain).
func (c *Chain) LatestEpoch() (epoch int64, ok bool, err error) {
	epoch, err = c.newest()
	return epoch, err == nil && epoch > 0, err
}

// ChainFor loads the snapshot that restores the given epoch. Its manifest
// must name the epoch its id does.
func (c *Chain) ChainFor(epoch int64) (*Snapshot, error) {
	data, err := c.get(epoch)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if s.Epoch != epoch {
		return nil, corruptf("chain: id %q holds epoch %d", IDFor(epoch), s.Epoch)
	}
	return s, nil
}

// Fallback records one epoch a degrading restore walked past and why it
// could not be loaded.
type Fallback struct {
	Epoch int64
	Err   error
}
