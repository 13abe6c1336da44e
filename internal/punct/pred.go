// Package punct implements punctuation patterns: per-attribute predicates
// that describe subsets of a stream. Patterns serve two roles in the paper:
//
//   - Embedded punctuation flows *with* the stream and asserts "no tuple
//     matching this pattern will be seen again" (Tucker et al.). Operators
//     use it to unblock and purge state.
//   - Feedback punctuation (package core) flows *against* the stream and
//     reuses the same pattern language to describe the subset of interest,
//     plus an intent.
//
// A pattern is one predicate per attribute; a tuple matches the pattern iff
// every attribute value satisfies its predicate. The wildcard "*" matches
// any value.
package punct

import (
	"fmt"
	"strings"

	"repro/internal/stream"
)

// Op is the comparison operator of an attribute predicate.
type Op uint8

const (
	// Any is the wildcard "*": every value matches.
	Any Op = iota
	// EQ matches values equal to Val.
	EQ
	// NE matches values not equal to Val.
	NE
	// LT matches values strictly less than Val.
	LT
	// LE matches values less than or equal to Val.
	LE
	// GT matches values strictly greater than Val.
	GT
	// GE matches values greater than or equal to Val.
	GE
	// Between matches Val ≤ value ≤ Hi.
	Between
	// In matches any value in Set.
	In
	// IsNull matches only the missing value.
	IsNull
)

var opNames = [...]string{
	Any:     "*",
	EQ:      "=",
	NE:      "!=",
	LT:      "<",
	LE:      "<=",
	GT:      ">",
	GE:      ">=",
	Between: "between",
	In:      "in",
	IsNull:  "isnull",
}

// String returns the operator's symbol.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Pred is a predicate on a single attribute.
type Pred struct {
	Op  Op
	Val stream.Value   // EQ, NE, LT, LE, GT, GE; Between lower bound
	Hi  stream.Value   // Between upper bound
	Set []stream.Value // In
}

// Wild is the wildcard predicate.
var Wild = Pred{Op: Any}

// Eq builds an equality predicate.
func Eq(v stream.Value) Pred { return Pred{Op: EQ, Val: v} }

// Ne builds an inequality predicate.
func Ne(v stream.Value) Pred { return Pred{Op: NE, Val: v} }

// Lt builds a strictly-less-than predicate.
func Lt(v stream.Value) Pred { return Pred{Op: LT, Val: v} }

// Le builds a less-than-or-equal predicate.
func Le(v stream.Value) Pred { return Pred{Op: LE, Val: v} }

// Gt builds a strictly-greater-than predicate.
func Gt(v stream.Value) Pred { return Pred{Op: GT, Val: v} }

// Ge builds a greater-than-or-equal predicate.
func Ge(v stream.Value) Pred { return Pred{Op: GE, Val: v} }

// Range builds a closed-interval predicate lo ≤ x ≤ hi.
func Range(lo, hi stream.Value) Pred { return Pred{Op: Between, Val: lo, Hi: hi} }

// OneOf builds a set-membership predicate.
func OneOf(vals ...stream.Value) Pred {
	return Pred{Op: In, Set: append([]stream.Value(nil), vals...)}
}

// IsWild reports whether the predicate is the wildcard.
func (p Pred) IsWild() bool { return p.Op == Any }

// Matches reports whether value v satisfies the predicate. Per SQL-like
// semantics, Null satisfies only Any and IsNull.
func (p Pred) Matches(v stream.Value) bool {
	switch p.Op {
	case Any:
		return true
	case IsNull:
		return v.IsNull()
	}
	if v.IsNull() {
		return false
	}
	switch p.Op {
	case EQ:
		return v.Equal(p.Val)
	case NE:
		return v.Comparable(p.Val) && !v.Equal(p.Val)
	case LT:
		c, ok := v.Compare(p.Val)
		return ok && c < 0
	case LE:
		c, ok := v.Compare(p.Val)
		return ok && c <= 0
	case GT:
		c, ok := v.Compare(p.Val)
		return ok && c > 0
	case GE:
		c, ok := v.Compare(p.Val)
		return ok && c >= 0
	case Between:
		lo, ok1 := v.Compare(p.Val)
		hi, ok2 := v.Compare(p.Hi)
		return ok1 && ok2 && lo >= 0 && hi <= 0
	case In:
		for _, s := range p.Set {
			if v.Equal(s) {
				return true
			}
		}
		return false
	}
	return false
}

// Implies reports whether p ⇒ q: every value matching p also matches q.
// The analysis is conservative: a false return means "could not prove",
// not "definitely not implied". Wildcard q is always implied; wildcard p
// implies only wildcard q.
func (p Pred) Implies(q Pred) bool {
	if q.Op == Any {
		return true
	}
	if p.Op == Any {
		return false
	}
	if p.Op == IsNull {
		return q.Op == IsNull
	}
	if q.Op == IsNull {
		return false
	}
	// Enumerable p: check each candidate value directly.
	switch p.Op {
	case EQ:
		return q.Matches(p.Val)
	case In:
		if len(p.Set) == 0 {
			return true // empty set implies anything
		}
		for _, v := range p.Set {
			if !q.Matches(v) {
				return false
			}
		}
		return true
	}
	// Interval reasoning for ranges.
	plo, phi := p.bounds()
	qlo, qhi := q.bounds()
	switch q.Op {
	case LT, LE, GT, GE, Between:
		return boundImplies(plo, qlo, true) && boundImplies(phi, qhi, false)
	}
	return false
}

// bound represents a one-sided interval endpoint.
type bound struct {
	val    stream.Value
	strict bool // exclusive endpoint
	inf    bool // unbounded
}

// bounds returns the (lower, upper) bounds of a range-like predicate.
func (p Pred) bounds() (lo, hi bound) {
	lo, hi = bound{inf: true}, bound{inf: true}
	switch p.Op {
	case LT:
		hi = bound{val: p.Val, strict: true}
	case LE:
		hi = bound{val: p.Val}
	case GT:
		lo = bound{val: p.Val, strict: true}
	case GE:
		lo = bound{val: p.Val}
	case Between:
		lo, hi = bound{val: p.Val}, bound{val: p.Hi}
	case EQ:
		lo, hi = bound{val: p.Val}, bound{val: p.Val}
	}
	return lo, hi
}

// boundImplies reports whether bound a is at least as tight as bound b.
// lower=true compares lower bounds, false compares upper bounds.
func boundImplies(a, b bound, lower bool) bool {
	if b.inf {
		return true
	}
	if a.inf {
		return false
	}
	c, ok := a.val.Compare(b.val)
	if !ok {
		return false
	}
	if lower {
		if c > 0 {
			return true
		}
		return c == 0 && (a.strict || !b.strict)
	}
	if c < 0 {
		return true
	}
	return c == 0 && (a.strict || !b.strict)
}

// String renders the predicate in the paper's notation.
func (p Pred) String() string {
	switch p.Op {
	case Any:
		return "*"
	case EQ:
		return p.Val.String()
	case NE:
		return "!=" + p.Val.String()
	case LT:
		return "<" + p.Val.String()
	case LE:
		return "<=" + p.Val.String()
	case GT:
		return ">" + p.Val.String()
	case GE:
		return ">=" + p.Val.String()
	case Between:
		return fmt.Sprintf("[%s..%s]", p.Val, p.Hi)
	case In:
		parts := make([]string, len(p.Set))
		for i, v := range p.Set {
			parts[i] = v.String()
		}
		return "{" + strings.Join(parts, "|") + "}"
	case IsNull:
		return "null"
	}
	return "?"
}
