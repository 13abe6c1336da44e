package op

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Duplicate copies its input to N identical outputs (the fan-out operator
// of the Figure 4(a) imputation plan). Its feedback rule is the paper's
// §4.1 example: because the operator's definition requires the outputs to
// be identical, an exploitation must affect all outputs or none. Duplicate
// therefore suppresses a subset only once *every* consumer has asserted
// assumed feedback covering it, and only then propagates upstream.
type Duplicate struct {
	exec.Responding
	snapshot.State
	OpName string
	Schema stream.Schema
	N      int
	// Mode enables exploitation; Propagate relays unanimously-asserted
	// feedback upstream.
	Mode      FeedbackMode
	Propagate bool

	perOut []*core.GuardTable // feedback asserted by each consumer

	in, out, suppressed int64
}

// Name implements exec.Operator.
func (d *Duplicate) Name() string {
	if d.OpName != "" {
		return d.OpName
	}
	return "duplicate"
}

func (d *Duplicate) n() int {
	if d.N <= 0 {
		return 2
	}
	return d.N
}

// InSchemas implements exec.Operator.
func (d *Duplicate) InSchemas() []stream.Schema { return []stream.Schema{d.Schema} }

// OutSchemas implements exec.Operator.
func (d *Duplicate) OutSchemas() []stream.Schema {
	out := make([]stream.Schema, d.n())
	for i := range out {
		out[i] = d.Schema
	}
	return out
}

// Open implements exec.Operator.
func (d *Duplicate) Open(exec.Context) error {
	d.Bind(d, d.Mode, d.Propagate, d.n(), d.Schema.Arity())
	d.perOut = d.OutTables()
	d.keepState()
	return nil
}

// unanimous reports whether every consumer's asserted feedback covers t.
func (d *Duplicate) unanimous(t stream.Tuple) bool {
	for _, g := range d.perOut {
		if g.Active() == 0 || !g.Suppress(t) {
			return false
		}
	}
	return true
}

// ProcessTuple implements exec.Operator.
func (d *Duplicate) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	d.in++
	if d.unanimous(t) {
		d.suppressed++
		return nil
	}
	d.out++
	for i := 0; i < d.n(); i++ {
		ctx.EmitTo(i, t)
	}
	return nil
}

// ProcessPunct implements exec.Operator: punctuation is duplicated to all
// outputs and drives guard expiration.
func (d *Duplicate) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	d.Observe(core.Output, e)
	for i := 0; i < d.n(); i++ {
		ctx.EmitPunctTo(i, e)
	}
	return nil
}

// Characterize implements core.Characterizer: a consumer's assertion is held
// against its port; once every other consumer has asserted a superset of it,
// the subset is exploitable for all of them and may travel upstream.
func (d *Duplicate) Characterize(output int, f core.Feedback) core.ResponsePlan {
	if f.Intent != core.Assumed {
		return core.ResponsePlan{Actions: []core.Action{core.ActNone}, Propagate: []*punct.Pattern{nil}}
	}
	if !d.CoveredByOthers(output, f) {
		return core.ResponsePlan{
			Actions:     []core.Action{core.ActGuardOutput},
			Propagate:   []*punct.Pattern{nil},
			Explanation: "awaiting matching feedback from all consumers (outputs must stay identical)",
		}
	}
	return core.Stateless(f, guardBoth, core.Identity(d.Schema.Arity()))
}
