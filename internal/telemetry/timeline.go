package telemetry

import (
	"sync"
	"time"
)

// EpochEvent is one checkpoint-lifecycle event: the epoch it belongs to,
// the phase (trigger, capture, encode, persist, ack, commit, abandon,
// fail), an optional part name (distributed runs), the wall time it was
// recorded, an optional duration (e.g. barrier hold, encode time), and an
// optional error.
type EpochEvent struct {
	Epoch int64         `json:"epoch"`
	Phase string        `json:"phase"`
	Part  string        `json:"part,omitempty"`
	At    time.Time     `json:"at"`
	Dur   time.Duration `json:"dur_ns,omitempty"`
	Err   string        `json:"err,omitempty"`
}

// Timeline is a bounded ring of epoch events, recorded by the checkpoint
// coordinator off the hot path (a handful of events per epoch). A nil
// *Timeline discards records, so call sites need no guard.
type Timeline struct {
	mu     sync.Mutex
	ring   []EpochEvent
	next   int
	filled bool
}

// NewTimeline creates a timeline with the given ring capacity.
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = 256
	}
	return &Timeline{ring: make([]EpochEvent, capacity)}
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
