package exec

import (
	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// Harness drives a single operator synchronously, with no goroutines or
// queues, recording everything it emits. Unit tests use it to exercise
// operator logic deterministically; the concurrent Runner and the Harness
// share the Operator interface, so behaviour verified here carries over.
type Harness struct {
	op  Operator
	src Source

	outs      [][]queue.Item          // per output port
	feedback  map[int][]core.Feedback // per input port: feedback sent upstream
	shutdowns []int                   // inputs asked to shut down
	err       error
	closed    bool
}

// NewHarness wraps an operator and calls Open.
func NewHarness(op Operator) *Harness {
	h := &Harness{
		op:       op,
		outs:     make([][]queue.Item, len(op.OutSchemas())),
		feedback: map[int][]core.Feedback{},
	}
	h.err = op.Open(h)
	return h
}

// NewSourceHarness wraps a source and calls Open.
func NewSourceHarness(src Source) *Harness {
	h := &Harness{
		src:      src,
		outs:     make([][]queue.Item, len(src.OutSchemas())),
		feedback: map[int][]core.Feedback{},
	}
	h.err = src.Open(h)
	return h
}

// Err returns the first error any callback produced.
func (h *Harness) Err() error { return h.err }

func (h *Harness) record(err error) {
	if h.err == nil {
		h.err = err
	}
}

// Tuple delivers a tuple to the operator's input port.
func (h *Harness) Tuple(input int, t stream.Tuple) *Harness {
	if h.err == nil {
		h.record(h.op.ProcessTuple(input, t, h))
	}
	return h
}

// Tuples delivers several tuples to input 0.
func (h *Harness) Tuples(ts ...stream.Tuple) *Harness {
	for _, t := range ts {
		h.Tuple(0, t)
	}
	return h
}

// Punct delivers embedded punctuation to an input port.
func (h *Harness) Punct(input int, e punct.Embedded) *Harness {
	if h.err == nil {
		h.record(h.op.ProcessPunct(input, e, h))
	}
	return h
}

// Feedback delivers feedback punctuation as if it arrived from the consumer
// of the given output port.
func (h *Harness) Feedback(output int, f core.Feedback) *Harness {
	if h.err == nil {
		if h.op != nil {
			h.record(h.op.ProcessFeedback(output, f, h))
		} else {
			h.record(h.src.ProcessFeedback(output, f, h))
		}
	}
	return h
}

// EOS ends one input port.
func (h *Harness) EOS(input int) *Harness {
	if h.err == nil {
		h.record(h.op.ProcessEOS(input, h))
	}
	return h
}

// CloseOp ends all inputs (EOS on each, if not already sent individually is
// the caller's business) and calls Close.
func (h *Harness) CloseOp() *Harness {
	if !h.closed && h.err == nil {
		h.closed = true
		if h.op != nil {
			h.record(h.op.Close(h))
		} else {
			h.record(h.src.Close(h))
		}
	}
	return h
}

// RunSource drives a source harness to completion (or maxSteps calls).
func (h *Harness) RunSource(maxSteps int) *Harness {
	for i := 0; h.err == nil && i < maxSteps; i++ {
		more, err := h.src.Next(h)
		h.record(err)
		if !more {
			break
		}
	}
	return h.CloseOp()
}

// Out returns everything emitted on the given output port.
func (h *Harness) Out(port int) []queue.Item { return h.outs[port] }

// OutTuples returns only the tuples emitted on the port, in order.
func (h *Harness) OutTuples(port int) []stream.Tuple {
	var ts []stream.Tuple
	for _, it := range h.outs[port] {
		if it.Kind == queue.ItemTuple {
			ts = append(ts, it.Tuple)
		}
	}
	return ts
}

// OutPuncts returns only the embedded punctuation emitted on the port.
func (h *Harness) OutPuncts(port int) []punct.Embedded {
	var es []punct.Embedded
	for _, it := range h.outs[port] {
		if it.Kind == queue.ItemPunct {
			es = append(es, *it.Punct)
		}
	}
	return es
}

// SentFeedback returns feedback the operator sent upstream on the given
// input port.
func (h *Harness) SentFeedback(input int) []core.Feedback { return h.feedback[input] }

// Reset clears recorded output (state inside the operator is untouched).
func (h *Harness) Reset() *Harness {
	for i := range h.outs {
		h.outs[i] = nil
	}
	h.feedback = map[int][]core.Feedback{}
	return h
}

// ---------------------------------------------------------------------------
// Context implementation.
// ---------------------------------------------------------------------------

// Emit implements Context.
func (h *Harness) Emit(t stream.Tuple) { h.EmitTo(0, t) }

// EmitTo implements Context.
func (h *Harness) EmitTo(port int, t stream.Tuple) {
	h.outs[port] = append(h.outs[port], queue.TupleItem(t))
}

// EmitBatch implements Context.
func (h *Harness) EmitBatch(ts []stream.Tuple) { h.EmitBatchTo(0, ts) }

// EmitBatchTo implements Context.
func (h *Harness) EmitBatchTo(port int, ts []stream.Tuple) {
	for _, t := range ts {
		h.EmitTo(port, t)
	}
}

// EmitPunct implements Context.
func (h *Harness) EmitPunct(e punct.Embedded) { h.EmitPunctTo(0, e) }

// EmitPunctTo implements Context.
func (h *Harness) EmitPunctTo(port int, e punct.Embedded) {
	h.outs[port] = append(h.outs[port], queue.PunctItem(e))
}

// SendFeedback implements Context.
func (h *Harness) SendFeedback(input int, f core.Feedback) {
	h.feedback[input] = append(h.feedback[input], f)
}

// ShutdownUpstream implements Context by recording the request.
func (h *Harness) ShutdownUpstream(input int) {
	h.shutdowns = append(h.shutdowns, input)
}

// ShutdownsSent returns the inputs the operator asked to shut down.
func (h *Harness) ShutdownsSent() []int { return append([]int(nil), h.shutdowns...) }

// NumInputs implements Context.
func (h *Harness) NumInputs() int {
	if h.op != nil {
		return len(h.op.InSchemas())
	}
	return 0
}

// NumOutputs implements Context.
func (h *Harness) NumOutputs() int { return len(h.outs) }
