package punct

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/stream"
)

// compiledCount counts pattern compilations process-wide; exec registers it
// as a global telemetry var. Compilation is off the tuple path (patterns
// compile at guard install), so one atomic add is free at the granularity
// that matters.
var compiledCount atomic.Int64

// CompiledCount reports how many patterns have been compiled.
func CompiledCount() int64 { return compiledCount.Load() }

// ExprStep is one conjunct of an Expr: a predicate applied to a single
// column. Name is optional and only used for rendering (EXPLAIN and
// Select.String); evaluation goes through Col alone.
type ExprStep struct {
	Col  int
	Name string
	Pred Pred
}

// Expr is the evaluation form of a conjunction of per-attribute predicates:
// a PaceQL WHERE clause, a Select's compiled condition, a fused kernel's
// select step and a guard's feedback pattern alike — the paper's Table 1
// adds an assumed pattern to a select condition, and here the two are one
// object. Pattern is the specification form (implication, projection,
// printing, the wire); Pred.Matches is the reference every step agrees
// with.
//
// An Expr is a flat table of (column, opcode, operand) steps. Ordering and
// equality comparisons against an Int/Time/Bool or a Float operand, and
// In-sets of more than setThreshold members of one kind, run inline on a
// value of the operand's kind; any other value, and every other predicate
// (string ordering, IsNull, mixed-kind bounds, small In-sets), goes to
// Pred.Matches. A tuple whose arity is not the Expr's matches nothing.
//
// Matches evaluates one tuple; Filter evaluates a run, one pass per step
// over the survivors, the opcode chosen once per pass. Neither allocates.
// An Expr is immutable after construction and safe for concurrent use.
type Expr struct {
	arity int
	steps []exprStep
}

// Opcodes. opGeneric is the reference alone; the rest compare a value of
// the step's kind inline. Every integer-domain (and float) comparison but ≠
// is a closed interval: =c is [c,c], <c is [min, c−1], >c is [c+1, max].
const (
	opGeneric    uint8 = iota
	opIntRange         // s.i ≤ v.I ≤ s.iHi
	opIntNE            // v.I ≠ s.i
	opFloatRange       // s.f ≤ v.F ≤ s.fHi (false for NaN)
	opFloatNE          // v.F ≠ s.f
	opIn               // v is in the hashed set
)

// setThreshold is the In-set size above which membership goes through the
// hash index; tiny sets scan faster than they hash.
const setThreshold = 4

type exprStep struct {
	col  int
	code uint8
	kind stream.Kind // the value kind the inline comparison applies to
	i    int64
	iHi  int64
	f    float64
	fHi  float64
	set  map[uint64][]stream.Value // opIn: members by Value.Hash
	pred Pred                      // the reference, for every other value
	name string
}

// compileStep picks the opcode. Mixed-kind bounds and every predicate
// without an inline form stay on the reference.
func compileStep(s ExprStep) exprStep {
	st := exprStep{col: s.Col, name: s.Name, pred: s.Pred}
	p := s.Pred
	switch k := p.Val.Kind; {
	case p.Op == In:
		if len(p.Set) > setThreshold && oneKind(p.Set) {
			st.code, st.kind, st.set = opIn, p.Set[0].Kind, make(map[uint64][]stream.Value, len(p.Set))
			for _, v := range p.Set {
				h := v.Hash()
				st.set[h] = append(st.set[h], v)
			}
		}
	case p.Op == Between && p.Hi.Kind != k:
		// Mixed-kind bounds: SQL incomparability, the reference only.
	case p.Op == NE && (k == stream.KindInt || k == stream.KindTime || k == stream.KindBool):
		st.code, st.kind, st.i = opIntNE, k, p.Val.I
	case p.Op == NE && k == stream.KindFloat:
		st.code, st.kind, st.f = opFloatNE, k, p.Val.F
	case k == stream.KindInt || k == stream.KindTime || k == stream.KindBool:
		if lo, hi, ok := intRange(p); ok {
			st.code, st.kind, st.i, st.iHi = opIntRange, k, lo, hi
		}
	case k == stream.KindFloat:
		if lo, hi, ok := floatRange(p); ok {
			st.code, st.kind, st.f, st.fHi = opFloatRange, k, lo, hi
		}
	}
	return st
}

// oneKind reports whether every member of a set has the same non-null kind.
// Hash equality is exact within one kind; across Int and Float it is not
// beyond 2^53, so a mixed set stays on the reference.
func oneKind(set []stream.Value) bool {
	for _, v := range set {
		if v.Kind != set[0].Kind || v.Kind == stream.KindNull {
			return false
		}
	}
	return true
}

// intRange is the closed interval of I values an ordering or equality
// predicate over an integer-domain operand accepts; an empty one is lo > hi.
func intRange(p Pred) (lo, hi int64, ok bool) {
	c := p.Val.I
	switch p.Op {
	case EQ:
		return c, c, true
	case LE:
		return math.MinInt64, c, true
	case GE:
		return c, math.MaxInt64, true
	case Between:
		return c, p.Hi.I, true
	case LT:
		if c == math.MinInt64 {
			return 1, 0, true
		}
		return math.MinInt64, c - 1, true
	case GT:
		if c == math.MaxInt64 {
			return 1, 0, true
		}
		return c + 1, math.MaxInt64, true
	}
	return 0, 0, false
}

// floatRange is intRange for a float operand. A NaN bound makes the
// interval empty, as it makes the comparison false; a strict bound is the
// next float inward, and nothing lies beyond an infinity.
func floatRange(p Pred) (lo, hi float64, ok bool) {
	c, inf := p.Val.F, math.Inf(1)
	switch p.Op {
	case EQ:
		return c, c, true
	case LE:
		return -inf, c, true
	case GE:
		return c, inf, true
	case Between:
		return c, p.Hi.F, true
	case LT:
		if c == -inf {
			return math.NaN(), math.NaN(), true
		}
		return -inf, math.Nextafter(c, -inf), true
	case GT:
		if c == inf {
			return math.NaN(), math.NaN(), true
		}
		return math.Nextafter(c, inf), inf, true
	}
	return 0, 0, false
}

// NewExpr compiles the steps against a schema of the given arity. Unlike
// Pattern, an Expr may bind several predicates to the same column (WHERE
// speed > 10 AND speed < 55). A step whose column is out of [0, arity) is a
// construction error, not a runtime panic.
func NewExpr(arity int, steps ...ExprStep) (*Expr, error) {
	e := &Expr{arity: arity, steps: make([]exprStep, 0, len(steps))}
	for _, s := range steps {
		if s.Col < 0 || s.Col >= arity {
			return nil, fmt.Errorf("punct: expr step %q: column %d out of range (arity %d)", s.Name, s.Col, arity)
		}
		e.steps = append(e.steps, compileStep(s))
	}
	return e, nil
}

// Compile builds the evaluation form of the pattern: one step per bound
// attribute, so wildcards cost nothing. Compile(p).Matches(t) equals
// p.Matches(t) for every t. The schema, when non-zero, must have the
// pattern's arity; against another one the Expr matches nothing. The zero
// Schema compiles against the pattern's own arity.
func (p Pattern) Compile(schema stream.Schema) *Expr {
	compiledCount.Add(1)
	e := &Expr{arity: len(p.preds)}
	if a := schema.Arity(); a > 0 && a != len(p.preds) {
		e.arity = -1 // no tuple has it
		return e
	}
	for i, pr := range p.preds {
		if !pr.IsWild() {
			e.steps = append(e.steps, compileStep(ExprStep{Col: i, Pred: pr}))
		}
	}
	return e
}

// Matches reports whether the tuple satisfies every step.
//
//pace:hotpath
func (e *Expr) Matches(t stream.Tuple) bool {
	if len(t.Values) != e.arity {
		return false
	}
	for i := range e.steps {
		s := &e.steps[i]
		if !s.match(&t.Values[s.col]) {
			return false
		}
	}
	return true
}

// Eval is Matches.
//
// bench/ only: kept so that the benchmark module compiles; goes with
// ROADMAP item 1a.
func (e *Expr) Eval(t stream.Tuple) bool { return e.Matches(t) }

// match is one step on one value: inline on a value of the step's kind, the
// reference on any other.
//
//pace:hotpath
func (s *exprStep) match(v *stream.Value) bool {
	if v.Kind == s.kind {
		switch s.code {
		case opIntRange:
			return v.I >= s.i && v.I <= s.iHi
		case opIntNE:
			return v.I != s.i
		case opFloatRange:
			return v.F >= s.f && v.F <= s.fHi
		case opFloatNE:
			return v.F != s.f
		case opIn:
			for _, m := range s.set[v.Hash()] {
				if v.Equal(m) {
					return true
				}
			}
			return false
		}
	}
	return s.pred.Matches(*v)
}

// Filter keeps, in order, the tuples of run that Matches, compacting them
// to the front of run, and returns that prefix. Every tuple of run has the
// Expr's arity (a Select's input schema); Matches is the form that checks
// it. Filter makes one pass over the survivors per step and picks the
// opcode once per pass. No allocation.
//
//pace:hotpath
func (e *Expr) Filter(run []stream.Tuple) []stream.Tuple {
	for i := range e.steps {
		if len(run) == 0 {
			break
		}
		run = e.steps[i].filter(run)
	}
	return run
}

// filter is one step's pass over run. Each inline case compares a value of
// the operand's kind in the loop and hands any other value to match.
//
//pace:hotpath
func (s *exprStep) filter(run []stream.Tuple) []stream.Tuple {
	k := 0
	switch s.code {
	case opIntRange:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.I >= s.i && v.I <= s.iHi || v.Kind != s.kind && s.match(v) {
				run[k] = t
				k++
			}
		}
	case opIntNE:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.I != s.i || v.Kind != s.kind && s.match(v) {
				run[k] = t
				k++
			}
		}
	case opFloatRange:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.F >= s.f && v.F <= s.fHi || v.Kind != s.kind && s.match(v) {
				run[k] = t
				k++
			}
		}
	case opFloatNE:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.F != s.f || v.Kind != s.kind && s.match(v) {
				run[k] = t
				k++
			}
		}
	default:
		for _, t := range run {
			if s.match(&t.Values[s.col]) {
				run[k] = t
				k++
			}
		}
	}
	return run[:k]
}

// String renders the conjunction, preferring attribute names when present.
func (e *Expr) String() string {
	if len(e.steps) == 0 {
		return "true"
	}
	var b strings.Builder
	for i := range e.steps {
		s := &e.steps[i]
		if i > 0 {
			b.WriteString(" AND ")
		}
		rendered := s.pred.String()
		if s.pred.Op == EQ {
			rendered = "=" + rendered // bare value in Pred notation; make the comparison explicit
		}
		if s.name != "" {
			fmt.Fprintf(&b, "%s%s", s.name, rendered)
		} else {
			fmt.Fprintf(&b, "[%d]%s", s.col, rendered)
		}
	}
	return b.String()
}
