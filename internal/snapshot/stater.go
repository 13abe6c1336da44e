package snapshot

// Stater is the one contract by which operators and sources take part in
// checkpoints (DESIGN.md §6.2). A cut has two phases:
//
//   - phase 1 — CaptureState — runs on the node's own goroutine at its
//     consistent cut (barrier alignment for operators, between Next calls for
//     sources) and only takes a *view* of the owned mutable state:
//     accumulators, guards, replay positions; never in-flight tuples or
//     anything derived from schema or configuration. The view must not alias
//     anything the operator mutates after the barrier releases.
//   - phase 2 — Capture.Encode — runs on a background goroutine after the
//     barrier has released and serializes the view.
//
// Every capture is full: LoadState is called after Open, before any data, on
// a freshly built plan, with one blob a capture wrote.
type Stater interface {
	CaptureState(mode CaptureMode) (Capture, error)
	LoadState(dec *Decoder) error
}

// CaptureMode is what a caller asked a capture for. Every capture is full
// whatever the mode (DESIGN.md §7); the mode is kept, and ignored, so that
// callers written against the two-mode contract still compile.
type CaptureMode int

const (
	// CaptureFull asks for the operator's entire state.
	CaptureFull CaptureMode = iota
	// CaptureDelta is answered exactly as CaptureFull is.
	CaptureDelta
)

// Capture is a phase-1 result: an immutable view of one operator's state
// plus the encoder that serializes it.
type Capture struct {
	// Encode serializes the captured view (phase 2). It runs on a
	// background goroutine after the barrier has released and therefore
	// must not read anything the live operator mutates — only the view
	// captured in phase 1.
	Encode func(*Encoder) error
}

// EncodeCapture runs both phases of a capture back to back: the synchronous
// form, for callers that are not at a barrier.
func EncodeCapture(st Stater, enc *Encoder) error {
	c, err := st.CaptureState(CaptureFull)
	if err != nil {
		return err
	}
	return c.Encode(enc)
}
