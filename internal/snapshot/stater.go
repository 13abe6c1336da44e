package snapshot

// Stater is the one contract by which operators and sources take part in
// checkpoints (DESIGN.md §6.2). A cut has two phases:
//
//   - phase 1 — CaptureState — runs on the node's own goroutine at its
//     consistent cut (barrier alignment for operators, between Next calls for
//     sources) and only takes a *view* of the owned mutable state:
//     accumulators, guards, replay positions, a drained changelog; never
//     in-flight tuples or anything derived from schema or configuration. The
//     view must not alias anything the operator mutates after the barrier
//     releases; its cost is O(view), which for a delta is O(changes since the
//     previous capture).
//   - phase 2 — Capture.Encode — runs on a background goroutine after the
//     barrier has released and serializes the view.
//
// LoadState is called after Open, before any data, on a freshly built plan,
// with a blob a full capture wrote.
//
// An operator that may return Capture.Delta additionally has the method
//
//	ApplyDelta(dec *Decoder) error
//
// which merges one delta blob into already-loaded state during restore; it is
// only ever called after LoadState (or a previous ApplyDelta) on the same
// operator.
type Stater interface {
	CaptureState(mode CaptureMode) (Capture, error)
	LoadState(dec *Decoder) error
}

// CaptureMode selects what phase 1 captures.
type CaptureMode int

const (
	// CaptureFull captures the operator's entire state (a base snapshot).
	// It also resets the operator's changelog: the next delta capture is
	// relative to this cut.
	CaptureFull CaptureMode = iota
	// CaptureDelta captures only the state changed since the previous
	// capture (full or delta) and drains the changelog. An operator with no
	// capture history yet, or one that never captures deltas, answers with a
	// full capture instead (Delta=false on the returned Capture) — the
	// coordinator never has to know whether an operator can honour a delta
	// request.
	CaptureDelta
)

// Capture is a phase-1 result: an immutable view of one operator's state
// plus the encoder that serializes it.
type Capture struct {
	// Delta marks the blob as a delta relative to the operator's previous
	// capture; restore applies it with ApplyDelta on top of the
	// already-loaded predecessor state. A full blob (Delta=false) replaces:
	// restore calls LoadState, discarding anything staged before it.
	Delta bool
	// Encode serializes the captured view (phase 2). It runs on a
	// background goroutine after the barrier has released and therefore
	// must not read anything the live operator mutates — only the view
	// captured in phase 1.
	Encode func(*Encoder) error
}

// EncodeCapture runs both phases of a full capture back to back: the
// synchronous form, for callers that are not at a barrier.
func EncodeCapture(st Stater, enc *Encoder) error {
	c, err := st.CaptureState(CaptureFull)
	if err != nil {
		return err
	}
	return c.Encode(enc)
}
