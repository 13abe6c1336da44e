// Package exec is the query execution runtime, modelled on NiagaraST's
// push-based pipelined architecture (§5): operators run on goroutines
// ("operators run as threads") — one per chain of operators (Graph.Chained)
// — connected by paged data queues flowing downstream and control channels
// flowing upstream. Control messages — feedback punctuation and shutdown —
// are out-of-band and processed with priority over pending tuples.
//
// Graph.Run is the one driver. Drive runs a single operator on it, between a
// scripted source and a recording sink, on one goroutine: that is how unit
// tests exercise an operator, with the pages, slabs and control rechecks of
// every plan. Operators see one Context, whose emit surface takes single
// tuples and runs of tuples alike: an operator that holds a run emits it as
// one, and there is no second, per-tuple way to send it. An operator's
// counters live in the operator (atomics, read through its Stats and exported
// through telemetry.VarExporter); the graph reports only what the queues
// themselves count (Edges).
//
// The runtime owns each node's boundary: Graph.Add is the one wiring check,
// so an operator sees only the ports the plan wired; every punctuation a
// node emits folds into its responder first, releasing the guards it covers
// (§4.4); and a source whose stream carries barriers (BarrierSource) is cut
// where it hands one over (Barrier).
package exec

import (
	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Context is the surface through which an operator interacts with the
// runtime: emitting data and punctuation downstream, and sending feedback
// punctuation upstream. The Emit* methods must only be called from the
// operator's own callback goroutine; SendFeedback is additionally safe
// from other goroutines under the Graph runtime (network transports use
// this to relay remote feedback as it arrives).
type Context interface {
	// Emit sends a tuple to output port 0.
	Emit(t stream.Tuple)
	// EmitTo sends a tuple to the given output port.
	EmitTo(port int, t stream.Tuple)
	// EmitBatch sends a run of tuples, in order, to output port 0: the
	// runtime pays its page-capacity check per chunk instead of per tuple.
	// Implementations copy the tuples out before returning and must not
	// retain the slice; the caller may reuse it at once.
	EmitBatch(ts []stream.Tuple)
	// EmitBatchTo sends a run of tuples to the given output port (Split
	// partitions a run into one sub-run per port).
	EmitBatchTo(port int, ts []stream.Tuple)
	// EmitPunct sends embedded punctuation to output port 0.
	EmitPunct(e punct.Embedded)
	// EmitPunctTo sends embedded punctuation to the given output port.
	EmitPunctTo(port int, e punct.Embedded)
	// SendFeedback sends feedback punctuation upstream to the operator
	// feeding the given input port. It is the paper's dashed arrow in
	// Figure 2(b).
	SendFeedback(input int, f core.Feedback)
	// ShutdownUpstream sends the out-of-band shutdown control message to
	// the operator feeding the given input port (§5: the upstream control
	// channel carries "feedback punctuation and shutdown messages"). A
	// producer stops once every consumer has asked it to, and relays the
	// shutdown further up.
	ShutdownUpstream(input int)
	// NumInputs reports how many input ports are wired.
	NumInputs() int
}

// Slab returns n values for the run of tuples the caller is building: each
// tuple takes its share as slab[:k:k] and is emitted before the caller asks
// for another slab or returns from the callback it is in. Under the Graph
// runtime the memory is recycled — it belongs to the pages that receive those
// tuples and goes back to a pool when the last of them is released — so it
// arrives holding a previous run's values and the caller writes every value it
// hands out. Any other context (an allocation test's fake) gets fresh memory.
//
//pace:hotpath
func Slab(ctx Context, n int) []stream.Value {
	if r, ok := ctx.(interface{ Slab(int) []stream.Value }); ok {
		return r.Slab(n)
	}
	return make([]stream.Value, n) //pace:allow-alloc a context without pages: nothing to recycle into, the tuples own garbage-collected memory
}

// Operator is a stream operator with zero or more inputs and zero or more
// outputs. Implementations are single-goroutine: the runtime serializes all
// callbacks on one operator.
//
// A tuple handed to ProcessTuple (or to a batch method below) is valid until
// that callback returns: its Values may sit in a recycled slab that the
// runtime gives back once the page that delivered the tuple is released.
// Emitting the tuple, or a new tuple sharing its Values, inside the callback
// is always safe — the output pages take over the slab — and copying a Value
// out is too (Values are plain data). An operator that keeps a tuple past the
// callback (join state, a reorder buffer, a collecting sink) keeps
// Tuple.Clone() of it.
type Operator interface {
	// Name identifies the operator instance in logs and stats.
	Name() string
	// InSchemas returns one schema per input port.
	InSchemas() []stream.Schema
	// OutSchemas returns one schema per output port.
	OutSchemas() []stream.Schema
	// Open is called once before any event.
	Open(ctx Context) error
	// ProcessTuple handles one data tuple from the given input.
	ProcessTuple(input int, t stream.Tuple, ctx Context) error
	// ProcessPunct handles embedded punctuation from the given input.
	ProcessPunct(input int, e punct.Embedded, ctx Context) error
	// ProcessFeedback handles feedback punctuation arriving from the
	// consumer of the given output port. Feedback-unaware operators
	// simply return nil (they "ignore feedback and are unable to further
	// propagate it", §5).
	ProcessFeedback(output int, f core.Feedback, ctx Context) error
	// ProcessEOS is called when the given input ends. After every input
	// has ended, Close is called.
	ProcessEOS(input int, ctx Context) error
	// Close is called once after all inputs ended (or on shutdown);
	// operators flush remaining state here.
	Close(ctx Context) error
}

// TupleBatcher is an optional Operator fast path: the runtime hands an
// implementing operator maximal runs of consecutive tuples from one page in
// a single call instead of one ProcessTuple call each. Every item in the
// slice has Kind ItemTuple. The call must be exactly equivalent to invoking
// ProcessTuple on each tuple in order — same emissions, same state, same
// stats — because the runtime freely mixes the two paths (per-item dispatch
// remains in use for barrier alignment and singleton runs). The slice, its
// backing page and the tuples' Values are only valid for the duration of the
// call (see Operator: keep Tuple.Clone() of what must outlive it).
type TupleBatcher interface {
	ProcessTupleBatch(input int, items []queue.Item, ctx Context) error
}

// TupleBatchApplier is an optional Operator fast path one level below
// TupleBatcher: the caller has already unwrapped a run of queue items into
// bare tuples (e.g. a fused prefix kernel filtering survivors in its scratch
// buffer) and hands the run straight to the stateful consumer. The call must
// be exactly equivalent to invoking ProcessTuple on each tuple in order —
// same emissions, same state, same stats. The slice and the tuples' Values
// are only valid for the duration of the call and must not be retained or
// mutated (keep Tuple.Clone() of what must outlive it).
type TupleBatchApplier interface {
	ApplyTupleBatch(input int, ts []stream.Tuple, ctx Context) error
}

// BatchEmitter names Context's EmitBatch method on its own. Every Context
// satisfies it; it is kept because the frozen bench/ module asserts it.
type BatchEmitter interface {
	EmitBatch(ts []stream.Tuple)
}

// Source is a self-driving operator with no inputs. The runtime repeatedly
// calls Next, interleaving feedback delivery between calls, until Next
// returns false. One Next call is one callback in the sense of Operator: a
// source that builds a run of tuples in a Slab emits it before Next returns
// (remote.Source decodes each frame into one), and a source that keeps a
// tuple it has emitted — to replay it — keeps Tuple.Clone() of it or builds it
// in memory of its own (as SliceSource does with its input).
type Source interface {
	// Name identifies the source in logs and stats.
	Name() string
	// OutSchemas returns one schema per output port.
	OutSchemas() []stream.Schema
	// Open is called once before the first Next.
	Open(ctx Context) error
	// Next emits zero or more items and reports whether more remain.
	Next(ctx Context) (more bool, err error)
	// ProcessFeedback handles feedback from the consumer of the given
	// output port.
	ProcessFeedback(output int, f core.Feedback, ctx Context) error
	// Close is called once after the last Next (or on shutdown).
	Close(ctx Context) error
}

// InlineSource is a Source whose Next never blocks — it neither sleeps nor
// waits on a socket or another goroutine — so its consumers run on its
// goroutine (Graph.Chained).
type InlineSource interface {
	Source
	NeverBlocks()
}

// Base provides no-op defaults for optional Operator methods; embed it to
// write compact operators. The zero value is ready to use.
type Base struct{}

// Open implements Operator with a no-op.
func (Base) Open(Context) error { return nil }

// ProcessPunct implements Operator by dropping punctuation. Operators that
// relay stream progress must override this.
func (Base) ProcessPunct(int, punct.Embedded, Context) error { return nil }

// ProcessFeedback implements Operator by ignoring feedback (a
// feedback-unaware operator).
func (Base) ProcessFeedback(int, core.Feedback, Context) error { return nil }

// ProcessEOS implements Operator with a no-op.
func (Base) ProcessEOS(int, Context) error { return nil }

// Close implements Operator with a no-op.
func (Base) Close(Context) error { return nil }

// Responding is Base for an operator or source that responds to feedback. It
// carries the operator's core.Responder — guard tables, counters, response
// trace — and ProcessFeedback is the responder enacting the operator's
// Characterize; the embedding type binds it in Open (Bind) and writes no
// feedback handler of its own, nor expires a guard: the runtime folds every
// punctuation the node emits into the responder.
type Responding struct {
	Base
	core.Responder[Context]
}

// ProcessFeedback implements Operator and Source.
func (r *Responding) ProcessFeedback(output int, f core.Feedback, ctx Context) error {
	return r.Respond(output, f, ctx)
}

// TelemetryVars implements telemetry.VarExporter with the feedback counters.
func (r *Responding) TelemetryVars() []telemetry.Var {
	return FeedbackVars(r.Received, r.Exploited, r.Forwarded)
}

// FeedbackVars renders feedback counters as the three pace_op_feedback_*
// series every responding operator exports.
func FeedbackVars(received, exploited, forwarded func() int64) []telemetry.Var {
	return []telemetry.Var{
		{Name: "pace_op_feedback_received_total", Help: "Feedback messages delivered to the operator.", Value: received},
		{Name: "pace_op_feedback_exploited_total", Help: "Feedback messages acted on locally (guard installed, state purged, production reordered or unblocked).", Value: exploited},
		{Name: "pace_op_feedback_forwarded_total", Help: "Feedback messages relayed upstream.", Value: forwarded},
	}
}
