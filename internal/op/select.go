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
	c      counters
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

// ProcessTuple implements exec.Operator: a run of one through FilterRun.
//
//pace:hotpath
func (s *Select) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	one := [1]stream.Tuple{t}
	if out := s.FilterRun(one[:]); len(out) == 1 {
		ctx.Emit(out[0])
	}
	return nil
}

// FilterRun is the select's evaluation: it keeps the tuples of run that its
// guards do not suppress and its predicate keeps, compacted in place. Its
// passes follow the work per tuple — the guard probe, Cost for each tuple
// left, Expr, Cond — and the counters move once per run.
//
//pace:hotpath
func (s *Select) FilterRun(run []stream.Tuple) []stream.Tuple {
	in := len(run)
	run = s.c.suppress(s.guards, run)
	if s.Cost > 0 && len(run) > 0 {
		s.c.Work.Do(s.Cost * len(run))
	}
	if s.Expr != nil {
		run = s.Expr.Filter(run)
	}
	if s.Cond != nil {
		k := 0
		for _, t := range run {
			if s.Cond(t) {
				run[k] = t
				k++
			}
		}
		run = run[:k]
	}
	s.c.count(in, len(run))
	return run
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
