package op

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Prioritize is an exploiter of desired (?) feedback: a pass-through stage
// with a bounded reorder buffer. Tuples matching a desired (or demanded)
// pattern its responder holds bypass the buffer and are emitted immediately;
// everything else drains in FIFO order as the buffer fills, on punctuation,
// or at end of stream. Punctuation releases a held pattern as it does a guard.
//
// Placed upstream of an IMPATIENT JOIN, it realizes §3.4's scenario: the
// join announces which (period, segment) subsets it can immediately use,
// and this operator moves those tuples to the front — changing production
// time and order but never the result set, exactly the desired-punctuation
// contract.
//
// Assumed feedback is exploited maximally: matching buffered tuples are
// dropped before ever being emitted, and the guard persists.
type Prioritize struct {
	exec.Responding
	snapshot.State
	OpName string
	Schema stream.Schema
	// BufferCap bounds the reorder buffer (default 256). A larger buffer
	// gives desired feedback more opportunity to overtake.
	BufferCap int
	// Mode as in Select; FeedbackIgnore reduces the operator to a FIFO
	// pass-through. PRIORITIZE relays no feedback upstream: it is the
	// exploiter §3.4 places above the impatient join.
	Mode FeedbackMode

	// guards holds assumed feedback; desired and demanded the subsets to
	// promote. All three are the responder's tables.
	guards, desired, demanded *core.GuardTable
	pending                   []stream.Tuple

	in, out, promoted, dropped int64
}

// Name implements exec.Operator.
func (p *Prioritize) Name() string {
	if p.OpName != "" {
		return p.OpName
	}
	return "prioritize"
}

func (p *Prioritize) cap() int {
	if p.BufferCap <= 0 {
		return 256
	}
	return p.BufferCap
}

// InSchemas implements exec.Operator.
func (p *Prioritize) InSchemas() []stream.Schema { return []stream.Schema{p.Schema} }

// OutSchemas implements exec.Operator.
func (p *Prioritize) OutSchemas() []stream.Schema { return []stream.Schema{p.Schema} }

// Open implements exec.Operator.
func (p *Prioritize) Open(exec.Context) error {
	p.Bind(p, p.Mode, false, 1, p.Schema.Arity())
	p.guards = p.OutTables()[0]
	p.desired, p.demanded = p.Holds(core.Desired)[0], p.Holds(core.Demanded)[0]
	p.keepState()
	return nil
}

// ProcessTuple implements exec.Operator.
func (p *Prioritize) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	p.in++
	if p.guards.Suppress(t) {
		p.dropped++
		return nil
	}
	// A held table's probe reports a tuple of its subset.
	if p.desired.Suppress(t) || p.demanded.Suppress(t) {
		p.promoted++
		p.out++
		ctx.Emit(t)
		return nil
	}
	// The buffer outlives the callback: it owns a clone.
	p.pending = append(p.pending, t.Clone())
	for len(p.pending) > p.cap() {
		p.emitOldest(ctx)
	}
	return nil
}

func (p *Prioritize) emitOldest(ctx exec.Context) {
	t := p.pending[0]
	p.pending = p.pending[1:]
	p.out++
	ctx.Emit(t)
}

func (p *Prioritize) flush(ctx exec.Context) {
	for len(p.pending) > 0 {
		p.emitOldest(ctx)
	}
}

// ProcessPunct implements exec.Operator: all buffered tuples must precede
// the punctuation downstream, so the buffer flushes first.
func (p *Prioritize) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	p.flush(ctx)
	ctx.EmitPunct(e)
	return nil
}

// ProcessEOS implements exec.Operator.
func (p *Prioritize) ProcessEOS(_ int, ctx exec.Context) error {
	p.flush(ctx)
	return nil
}

// Characterize implements core.Characterizer: assumed feedback is exploited
// maximally (guard, and drop the matching backlog), desired and demanded
// feedback reorders. Over its identity mapping all of it would propagate;
// Open binds the responder not to relay.
func (p *Prioritize) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	plan := core.Stateless(f, []core.Action{core.ActGuardInput, core.ActPurgeState}, core.Identity(p.Schema.Arity()))
	if f.Intent != core.Assumed {
		plan.Actions = append([]core.Action{core.ActPrioritize}, plan.Actions...)
	}
	return plan
}

// Prioritize implements core.Prioritizer: promote the matching backlog at
// once. The responder holds the subset for what arrives later.
func (p *Prioritize) Prioritize(f core.Feedback, ctx exec.Context) {
	kept := p.pending[:0]
	for _, t := range p.pending {
		if f.Pattern.Matches(t) {
			p.promoted++
			p.out++
			ctx.Emit(t)
			continue
		}
		kept = append(kept, t)
	}
	p.pending = kept
}

// Purge implements core.Purger: buffered tuples of the assumed subset are
// dropped before ever being emitted. The guard is the output table's.
func (p *Prioritize) Purge(f core.Feedback, _ core.ResponsePlan) []core.Pin {
	kept := p.pending[:0]
	for _, t := range p.pending {
		if f.Pattern.Matches(t) {
			p.dropped++
			continue
		}
		kept = append(kept, t)
	}
	p.pending = kept
	return nil
}

// Stats reports (in, out, promoted, dropped).
func (p *Prioritize) Stats() (in, out, promoted, dropped int64) {
	return p.in, p.out, p.promoted, p.dropped
}
