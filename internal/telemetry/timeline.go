package telemetry

import (
	"sync"
	"time"
)

// EpochEvent is one checkpoint-lifecycle event: the epoch it belongs to,
// the phase (trigger, capture, barrier-hold, encode, persist, ack, commit,
// abandon, panic), an optional part name (a capture's node, an ack's
// follower, the coordinator's part on its commit and abandon, a panicking
// node), the wall time it was recorded,
// an optional duration (e.g. barrier hold, encode time), and an optional
// error. An epoch commits when its manifest is durable: one commit row, or
// one abandon row, per epoch the coordinator finishes.
type EpochEvent struct {
	Epoch int64         `json:"epoch"`
	Phase string        `json:"phase"`
	Part  string        `json:"part,omitempty"`
	At    time.Time     `json:"at"`
	Dur   time.Duration `json:"dur_ns,omitempty"`
	Err   string        `json:"err,omitempty"`
}

// Timeline is a bounded ring of epoch events, recorded by the checkpoint
// machinery off the hot path (a handful of events per epoch): trigger,
// capture, barrier-hold, encode and persist by each part's graph, ack,
// commit and abandon by the coordinator (and abandon by a follower whose
// aligning epoch a newer one superseded), and a node's panic, under the
// newest epoch its graph had begun. A nil *Timeline discards records,
// so call sites need no guard.
type Timeline struct {
	mu     sync.Mutex
	ring   []EpochEvent
	next   int
	filled bool
}

// timelineCap is the number of epoch events a Timeline keeps: a handful per
// epoch, so the newest few hundred epochs.
const timelineCap = 1024

// NewTimeline creates an empty timeline holding the newest timelineCap
// events.
func NewTimeline() *Timeline {
	return &Timeline{ring: make([]EpochEvent, timelineCap)}
}

// Record appends one event, stamping At with the time it is recorded;
// nil-receiver safe.
func (t *Timeline) Record(e EpochEvent) {
	if t == nil {
		return
	}
	e.At = time.Now()
	t.mu.Lock()
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (t *Timeline) Events() []EpochEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.filled {
		return append([]EpochEvent(nil), t.ring[:t.next]...)
	}
	out := make([]EpochEvent, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}
