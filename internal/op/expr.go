package op

import (
	"fmt"
	"strings"

	"repro/internal/punct"
	"repro/internal/stream"
)

// ExprStep is one conjunct of a flat filter expression: a predicate applied
// to a single column. Name is optional and only used for rendering (EXPLAIN
// and Select.String); evaluation goes through Col alone.
type ExprStep struct {
	Col  int
	Name string
	Pred punct.Pred
}

// Expr is a compiled conjunction over tuple columns: a flat step table of
// (column index, opcode, operand) rows. Filter evaluates a run with one pass
// over its survivors per conjunct, the opcode chosen once per pass, with no
// closures and no allocation; Eval is a run of one. Ordering comparisons
// against Int/Time/Bool and Float operands compile to opcodes whose
// comparisons run inline in the pass — no function call at all on the hot
// path; everything else (In-sets, string ordering, IsNull, mixed-kind
// numeric comparisons) falls back to the same devirtualized form
// punct.Pattern.Compile uses for guard matching. It is the evaluation form
// the PaceQL WHERE clause and fused kernels share, replacing the nested
// func(Tuple) bool trees query.go used to build.
//
// An Expr is immutable after construction and safe for concurrent use.
type Expr struct {
	steps []exprStep
}

// Opcodes for the inline comparison paths. opGeneric routes through the
// compiled predicate; the rest compare Value.I (integer-domain kinds) or
// Value.F (floats) directly, guarded by an exact kind match.
const (
	opGeneric uint8 = iota
	opIntEQ
	opIntNE
	opIntLT
	opIntLE
	opIntGT
	opIntGE
	opIntBetween
	opFloatEQ
	opFloatNE
	opFloatLT
	opFloatLE
	opFloatGT
	opFloatGE
	opFloatBetween
)

type exprStep struct {
	col  int
	code uint8
	kind stream.Kind // operand kind the inline path requires of the value
	i    int64       // integer-domain operand (lo bound for Between)
	iHi  int64
	f    float64 // float operand (lo bound for Between)
	fHi  float64
	name string
	pred punct.CompiledPred // exact semantics for everything the opcodes skip
	raw  punct.Pred
}

// compileStep picks the opcode. Mixed-kind bounds and every non-ordering
// predicate stay on the generic path, whose semantics are authoritative.
func compileStep(s ExprStep) exprStep {
	st := exprStep{col: s.Col, name: s.Name, pred: punct.CompilePred(s.Pred), raw: s.Pred}
	var base uint8
	switch k := s.Pred.Val.Kind; {
	case k == stream.KindInt || k == stream.KindTime || k == stream.KindBool:
		base = opIntEQ
		st.i, st.iHi = s.Pred.Val.I, s.Pred.Hi.I
	case k == stream.KindFloat:
		base = opFloatEQ
		st.f, st.fHi = s.Pred.Val.F, s.Pred.Hi.F
	default:
		return st
	}
	st.kind = s.Pred.Val.Kind
	switch s.Pred.Op {
	case punct.EQ:
		st.code = base
	case punct.NE:
		st.code = base + 1
	case punct.LT:
		st.code = base + 2
	case punct.LE:
		st.code = base + 3
	case punct.GT:
		st.code = base + 4
	case punct.GE:
		st.code = base + 5
	case punct.Between:
		if s.Pred.Hi.Kind != s.Pred.Val.Kind {
			return st // mixed-kind bounds: SQL incomparability, generic only
		}
		st.code = base + 6
	}
	return st
}

// NewExpr compiles the steps against a schema of the given arity. Unlike
// Pattern, an Expr may bind several predicates to the same column (WHERE
// speed > 10 AND speed < 55). A step whose column is out of [0, arity)
// is a construction error, not a runtime panic.
func NewExpr(arity int, steps ...ExprStep) (*Expr, error) {
	e := &Expr{steps: make([]exprStep, 0, len(steps))}
	for _, s := range steps {
		if s.Col < 0 || s.Col >= arity {
			return nil, fmt.Errorf("op: expr step %q: column %d out of range (arity %d)", s.Name, s.Col, arity)
		}
		e.steps = append(e.steps, compileStep(s))
	}
	return e, nil
}

// Eval reports whether the tuple satisfies every step: a run of one through
// Filter.
//
//pace:hotpath
func (e *Expr) Eval(t stream.Tuple) bool {
	one := [1]stream.Tuple{t}
	return len(e.Filter(one[:])) == 1
}

// Filter keeps, in order, the tuples of run that satisfy every step,
// compacting them to the front of run, and returns that prefix. It makes one
// pass over the survivors per conjunct and picks the opcode once per pass;
// the pass compares inline on a value of the operand's kind and hands any
// other value to the compiled predicate. No allocation.
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

// filter is one conjunct's pass over run. Each case keeps a tuple whose value
// has the operand's kind and passes the inline comparison, or has another
// kind (a null, a mixed-kind comparison) and matches the compiled predicate.
//
//pace:hotpath
func (s *exprStep) filter(run []stream.Tuple) []stream.Tuple {
	k := 0
	switch s.code {
	case opGeneric:
		for _, t := range run {
			if s.pred.Matches(t.Values[s.col]) {
				run[k] = t
				k++
			}
		}
	case opIntEQ:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.I == s.i || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opIntNE:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.I != s.i || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opIntLT:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.I < s.i || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opIntLE:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.I <= s.i || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opIntGT:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.I > s.i || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opIntGE:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.I >= s.i || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opIntBetween:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && (v.I >= s.i && v.I <= s.iHi) || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opFloatEQ:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.F == s.f || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opFloatNE:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.F != s.f || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opFloatLT:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.F < s.f || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opFloatLE:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.F <= s.f || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opFloatGT:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.F > s.f || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opFloatGE:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && v.F >= s.f || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	case opFloatBetween:
		for _, t := range run {
			if v := &t.Values[s.col]; v.Kind == s.kind && (v.F >= s.f && v.F <= s.fHi) || v.Kind != s.kind && s.pred.Matches(*v) {
				run[k] = t
				k++
			}
		}
	}
	return run[:k]
}

// NumSteps returns the number of conjuncts.
func (e *Expr) NumSteps() int { return len(e.steps) }

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
		rendered := s.raw.String()
		if s.raw.Op == punct.EQ {
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
