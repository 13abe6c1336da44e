package op

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Select filters tuples by a predicate. It is stateless, so its feedback
// characterization is the simplest in the paper (§4.3): "assumed
// punctuation can simply be added to its select condition" — an input guard
// and an output guard coincide — and, being an identity mapping, any
// assumed feedback propagates safely upstream.
//
// Cost models per-tuple evaluation expense (e.g. the data-quality filter at
// the bottom of the Figure 4(b) plan); the Figure 7 F3 scheme saves this
// cost for suppressed tuples.
//
//pace:stateless counters and the responder's guards only (core.Responder: guards are exploitation-only)
type Select struct {
	exec.Responding
	OpName string
	Schema stream.Schema
	// Cond keeps tuples for which it returns true; nil keeps everything.
	// Like MapAttr.Fn it must not retain its argument's Values.
	Cond func(stream.Tuple) bool
	// Expr, when set, is a compiled conjunction evaluated before Cond —
	// the closure-free form PaceQL WHERE clauses compile to, and the same
	// punct.Expr a guard compiles its feedback pattern to (Table 1: the
	// assumed subset is added to the select condition). When both are set
	// a tuple must pass both.
	Expr *punct.Expr
	// Cost is the work units burned per tuple *evaluated* (guards are
	// checked first: a suppressed tuple costs nothing, which is exactly
	// the saving feedback buys).
	Cost int
	// Mode configures feedback response; Propagate relays feedback
	// upstream after exploiting.
	Mode      FeedbackMode
	Propagate bool

	guards *core.GuardTable
	c      Counters
}

// Name implements exec.Operator.
func (s *Select) Name() string {
	if s.OpName != "" {
		return s.OpName
	}
	return "select"
}

// InSchemas implements exec.Operator.
func (s *Select) InSchemas() []stream.Schema { return []stream.Schema{s.Schema} }

// OutSchemas implements exec.Operator.
func (s *Select) OutSchemas() []stream.Schema { return []stream.Schema{s.Schema} }

// Open implements exec.Operator.
func (s *Select) Open(exec.Context) error {
	s.Bind(s, s.Mode, s.Propagate, 1, s.Schema.Arity())
	s.guards = s.OutTables()[0]
	return nil
}

// ProcessTuple implements exec.Operator.
//
//pace:hotpath
func (s *Select) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	s.c.In.Add(1)
	if s.guards.Suppress(t) {
		s.c.Suppressed.Add(1)
		return nil
	}
	if s.Cost > 0 {
		s.c.Work.Do(s.Cost)
	}
	if (s.Expr == nil || s.Expr.Matches(t)) && (s.Cond == nil || s.Cond(t)) {
		s.c.Out.Add(1)
		ctx.Emit(t)
	}
	return nil
}

// ProcessPunct implements exec.Operator: a filter never weakens a
// completeness guarantee, so punctuation passes through unchanged; the
// runtime expires the guards it covers as it goes out (§4.4).
func (s *Select) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	ctx.EmitPunct(e)
	return nil
}

// Characterize implements core.Characterizer: the assumed subset is added to
// the select condition, and over an identity mapping every pattern propagates.
func (s *Select) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	return core.Stateless(f, guardBoth, core.Identity(s.Schema.Arity()))
}

// Stats reports tuple accounting.
func (s *Select) Stats() (in, out, suppressed int64) {
	return s.c.In.Load(), s.c.Out.Load(), s.c.Suppressed.Load()
}

// Counters returns the operator's counters, for a fused step to count into.
func (s *Select) Counters() *Counters { return &s.c }

// TelemetryVars implements telemetry.VarExporter.
func (s *Select) TelemetryVars() []telemetry.Var {
	return append(tupleVars(&s.c), s.Responding.TelemetryVars()...)
}

// CostBurned reports total evaluation work done.
func (s *Select) CostBurned() int64 { return s.c.Work.Total() }

// String describes the operator.
func (s *Select) String() string {
	if s.Expr != nil {
		return fmt.Sprintf("SELECT[%s %s mode=%s]", s.Name(), s.Expr, s.Mode)
	}
	return fmt.Sprintf("SELECT[%s mode=%s]", s.Name(), s.Mode)
}
