package snapshot

import (
	"fmt"
	"sync"
)

// Async decouples snapshot writes from the caller: Put enqueues and
// returns immediately and a single worker goroutine performs the
// underlying writes in order. The first write failure poisons the wrapper
// permanently — every later Put/Flush/Get/List returns it — because the
// writes queued behind a lost one assume it landed: retention's deletes of
// older epochs, queued behind a newer epoch's write, would otherwise destroy
// the only restorable cut. A supervised runtime fails, restarts, and re-opens
// the backend instead.
//
// Reads (Get/List) flush the queue first so the wrapper is sequentially
// consistent with itself: a Put followed by a Get/List observes the Put.
type Async struct {
	b Backend

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []asyncOp
	err    error // first write failure; permanent poison
	closed bool
	busy   bool // worker is applying an op it has already dequeued
}

type asyncOp struct {
	del  bool
	id   string
	data []byte
}

// NewAsync wraps a backend with an asynchronous write queue.
func NewAsync(b Backend) *Async {
	a := &Async{b: b}
	a.cond = sync.NewCond(&a.mu)
	go a.worker()
	return a
}

func (a *Async) worker() {
	a.mu.Lock()
	for {
		for len(a.queue) == 0 && !a.closed {
			a.cond.Wait()
		}
		if len(a.queue) == 0 && a.closed {
			a.mu.Unlock()
			return
		}
		op := a.queue[0]
		a.queue = a.queue[1:]
		if a.err != nil {
			// Poisoned: discard the rest of the queue instead of applying
			// it. Ops enqueued after a failed one may depend on it — e.g.
			// retention deletes the epoch a failed write was to replace,
			// and applying that delete without the write would destroy the
			// only restore path.
			a.cond.Broadcast()
			continue
		}
		a.busy = true
		a.mu.Unlock()

		var err error
		if op.del {
			err = a.b.Delete(op.id)
		} else {
			err = a.b.Put(op.id, op.data)
		}

		a.mu.Lock()
		a.busy = false
		if err != nil && a.err == nil {
			a.err = fmt.Errorf("snapshot: async write %q: %w", op.id, err)
		}
		a.cond.Broadcast()
	}
}

func (a *Async) enqueue(op asyncOp) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return fmt.Errorf("snapshot: async backend closed")
	}
	if a.err != nil {
		return a.err
	}
	a.queue = append(a.queue, op)
	a.cond.Broadcast()
	return nil
}

// Put implements Backend: it enqueues the write and returns immediately.
// The data is copied, so the caller may reuse the buffer. The returned
// error is a previous write's failure, if one is pending.
func (a *Async) Put(id string, data []byte) error {
	return a.enqueue(asyncOp{id: id, data: append([]byte(nil), data...)})
}

// Delete implements Backend (queued like Put).
func (a *Async) Delete(id string) error {
	return a.enqueue(asyncOp{del: true, id: id})
}

// Flush blocks until every queued write has been applied and returns the
// poison error if any write has ever failed.
func (a *Async) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.queue) > 0 || a.busy {
		a.cond.Wait()
	}
	return a.err
}

// Get implements Backend, flushing queued writes first.
func (a *Async) Get(id string) ([]byte, error) {
	if err := a.Flush(); err != nil {
		return nil, err
	}
	return a.b.Get(id)
}

// List implements Backend, flushing queued writes first.
func (a *Async) List() ([]string, error) {
	if err := a.Flush(); err != nil {
		return nil, err
	}
	return a.b.List()
}

// Close flushes and stops the worker; the wrapper rejects writes after.
func (a *Async) Close() error {
	err := a.Flush()
	a.mu.Lock()
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
	return err
}
