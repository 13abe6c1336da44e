package op

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Project narrows a stream to a subset of attributes (optionally renamed
// via the output schema names). Every output attribute carries an input
// attribute, so assumed feedback over the output schema always has a safe
// propagation; embedded punctuation survives downstream iff its bound
// attributes are kept (see RelayPunct).
//
//pace:stateless counters and the responder's guards only (core.Responder: guards are exploitation-only)
type Project struct {
	exec.Responding
	OpName string
	In     stream.Schema
	// Keep lists the input attribute names to retain, in output order.
	Keep []string
	// Mode/Propagate configure feedback response as in Select.
	Mode      FeedbackMode
	Propagate bool

	out      stream.Schema
	idxs     []int // output attr → input attr
	identity bool  // output carries every input attr in order: no copy
	guards   *core.GuardTable
	attrMap  core.AttrMap
	c        Counters
}

// Name implements exec.Operator.
func (p *Project) Name() string {
	if p.OpName != "" {
		return p.OpName
	}
	return "project"
}

// InSchemas implements exec.Operator.
func (p *Project) InSchemas() []stream.Schema { return []stream.Schema{p.In} }

// OutSchemas implements exec.Operator.
func (p *Project) OutSchemas() []stream.Schema {
	if p.out.Arity() == 0 {
		p.mustInit()
	}
	return []stream.Schema{p.out}
}

func (p *Project) mustInit() {
	if err := p.Init(); err != nil {
		panic(err.Error())
	}
}

// Init resolves the Keep list against the input schema, reporting a bad
// projection as an error instead of the panic OutSchemas/Open would raise.
// plan.Builder calls it at wiring time so misconfiguration surfaces through
// Builder.Err(). Calling Init again is a cheap no-op once it has succeeded.
func (p *Project) Init() error {
	if p.out.Arity() > 0 {
		return nil
	}
	out, idxs, err := p.In.Project(p.Keep...)
	if err != nil {
		return fmt.Errorf("op: project %q: %v", p.Name(), err)
	}
	p.out, p.idxs = out, idxs
	p.identity = identityMapping(idxs, p.In.Arity())
	p.attrMap = core.AttrMap{InputArity: p.In.Arity(), ToInput: append([]int(nil), idxs...)}
	return nil
}

// identityMapping reports whether idxs carries every one of arity input
// attributes in order, i.e. the projection is a (possibly renaming) no-op
// on values.
func identityMapping(idxs []int, arity int) bool {
	if len(idxs) != arity {
		return false
	}
	for i, src := range idxs {
		if src != i {
			return false
		}
	}
	return true
}

// Open implements exec.Operator.
func (p *Project) Open(exec.Context) error {
	if p.out.Arity() == 0 {
		p.mustInit()
	}
	p.Bind(p, p.Mode, p.Propagate, 1, p.out.Arity())
	p.guards = p.OutTables()[0]
	return nil
}

// ProcessTuple implements exec.Operator.
//
//pace:hotpath
func (p *Project) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	p.c.In.Add(1)
	projected := t
	if !p.identity {
		projected = t.Project(p.idxs)
	}
	// Identity projections share the input's Values: safe because tuples
	// are immutable after emit (DESIGN.md §2.1).
	if p.Mode != FeedbackIgnore && p.guards.Suppress(projected) {
		p.c.Suppressed.Add(1)
		return nil
	}
	p.c.Out.Add(1)
	ctx.Emit(projected)
	return nil
}

// ProcessPunct implements exec.Operator: punctuation is projected when its
// guarantee survives the attribute drop, otherwise it is consumed here.
func (p *Project) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	outputOf := func(in int) int {
		for o, src := range p.idxs {
			if src == in {
				return o
			}
		}
		return -1
	}
	if projected, ok := RelayPunct(e.Pattern, outputOf, p.out.Arity()); ok {
		pe := punct.NewEmbedded(projected)
		p.Observe(core.Output, pe)
		ctx.EmitPunct(pe)
	} else {
		p.c.PunctDropped.Add(1)
	}
	return nil
}

// Characterize implements core.Characterizer: guard the (projected) output
// and propagate the pattern in input-schema terms.
func (p *Project) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	return core.Stateless(f, guardBoth, p.attrMap)
}

// Stats reports tuple accounting.
func (p *Project) Stats() (in, out, suppressed, punctDropped int64) {
	return p.c.In.Load(), p.c.Out.Load(), p.c.Suppressed.Load(), p.c.PunctDropped.Load()
}

// Counters returns the operator's counters, for a fused step to count into.
func (p *Project) Counters() *Counters { return &p.c }

// TelemetryVars implements telemetry.VarExporter.
func (p *Project) TelemetryVars() []telemetry.Var {
	return append(append(tupleVars(&p.c), p.Responding.TelemetryVars()...), punctDroppedVar(&p.c))
}
