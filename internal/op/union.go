package op

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
)

// Union merges K same-schema inputs into one output stream. Stream
// progress on the output is the minimum of the inputs' progress: embedded
// punctuation on a designated ordered attribute (ProgressAttr, typically
// the timestamp) is combined as a per-input watermark and re-emitted when
// the minimum advances. Other punctuation shapes are consumed (a union
// cannot generally re-assert them without all inputs agreeing).
//
// Feedback propagates to every input: the mapping is the identity, so
// propagation is always safe.
//
//pace:stateless watermarks rebuild conservatively from post-restore punctuation; withholding punctuation is always safe
type Union struct {
	exec.Responding
	OpName string
	Schema stream.Schema
	K      int
	// ProgressAttr is the watermark attribute; -1 disables punctuation
	// relay entirely.
	ProgressAttr int
	// Mode/Propagate as in Select; Union itself is stateless so its only
	// exploitation is an input guard.
	Mode      FeedbackMode
	Propagate bool

	guards *core.GuardTable
	wm     []watermark

	in, out, suppressed int64
}

type watermark struct {
	set bool
	v   int64 // inclusive progress bound, micros/int domain
	eos bool
}

// Name implements exec.Operator.
func (u *Union) Name() string {
	if u.OpName != "" {
		return u.OpName
	}
	return "union"
}

func (u *Union) k() int {
	if u.K <= 0 {
		return 2
	}
	return u.K
}

// InSchemas implements exec.Operator.
func (u *Union) InSchemas() []stream.Schema {
	in := make([]stream.Schema, u.k())
	for i := range in {
		in[i] = u.Schema
	}
	return in
}

// OutSchemas implements exec.Operator.
func (u *Union) OutSchemas() []stream.Schema { return []stream.Schema{u.Schema} }

// Open implements exec.Operator.
func (u *Union) Open(exec.Context) error {
	u.Bind(u, u.Mode, u.Propagate, 1, u.Schema.Arity())
	u.guards = u.OutTables()[0]
	u.wm = make([]watermark, u.k())
	return nil
}

// ProcessTuple implements exec.Operator.
func (u *Union) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	u.in++
	if u.Mode != FeedbackIgnore && u.guards.Suppress(t) {
		u.suppressed++
		return nil
	}
	u.out++
	ctx.Emit(t)
	return nil
}

// ProcessPunct implements exec.Operator.
func (u *Union) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	// Any input's promise releases a guard it covers: early for the other
	// inputs, which only means suppressing less.
	u.Observe(core.Output, e)
	if u.ProgressAttr < 0 {
		return nil
	}
	pr := e.Pattern.Pred(u.ProgressAttr)
	bound := e.Pattern.Bound()
	if len(bound) != 1 || bound[0] != u.ProgressAttr {
		return nil // not a progress punctuation; consume it
	}
	var v int64
	switch pr.Op {
	case punct.LE:
		v = pr.Val.I
	case punct.LT:
		v = pr.Val.I - 1
	default:
		return nil
	}
	before := u.minWatermark()
	if !u.wm[input].set || v > u.wm[input].v {
		u.wm[input].set = true
		u.wm[input].v = v
	}
	if after := u.minWatermark(); after.set && (!before.set || after.v > before.v) {
		ctx.EmitPunct(punct.NewEmbedded(
			punct.OnAttr(u.Schema.Arity(), u.ProgressAttr, punct.Le(u.progressValue(after.v)))))
	}
	return nil
}

// progressValue rebuilds a value of the progress attribute's kind from the
// int64 watermark domain.
func (u *Union) progressValue(v int64) stream.Value {
	if u.Schema.Field(u.ProgressAttr).Kind == stream.KindTime {
		return stream.TimeMicros(v)
	}
	return stream.Int(v)
}

// minWatermark folds per-input progress; EOS inputs no longer constrain it.
func (u *Union) minWatermark() watermark {
	out := watermark{set: true}
	first := true
	for _, w := range u.wm {
		if w.eos {
			continue
		}
		if !w.set {
			return watermark{}
		}
		if first || w.v < out.v {
			out.v = w.v
			first = false
		}
	}
	if first {
		return watermark{} // all inputs EOS: nothing to assert
	}
	return out
}

// ProcessEOS implements exec.Operator.
func (u *Union) ProcessEOS(input int, ctx exec.Context) error {
	u.wm[input].eos = true
	if u.ProgressAttr >= 0 {
		if m := u.minWatermark(); m.set {
			ctx.EmitPunct(punct.NewEmbedded(
				punct.OnAttr(u.Schema.Arity(), u.ProgressAttr, punct.Le(u.progressValue(m.v)))))
		}
	}
	return nil
}

// Characterize implements core.Characterizer: guard the inputs and, the
// mapping being the identity, propagate to every one of them.
func (u *Union) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	return core.Stateless(f, []core.Action{core.ActGuardInput}, identities(u.k(), u.Schema.Arity())...)
}

// identities is the attribute mapping of a k-way same-schema fan-in.
func identities(k, arity int) []core.AttrMap {
	maps := make([]core.AttrMap, k)
	for i := range maps {
		maps[i] = core.Identity(arity)
	}
	return maps
}

// Stats reports tuple accounting.
func (u *Union) Stats() (in, out, suppressed int64) { return u.in, u.out, u.suppressed }
