package punct

import (
	"strings"

	"repro/internal/stream"
)

// Pattern is a punctuation pattern: one predicate per attribute of a schema.
// A tuple matches iff every attribute satisfies its predicate. Patterns are
// treated as immutable after construction.
type Pattern struct {
	preds []Pred
}

// NewPattern builds a pattern from per-attribute predicates.
func NewPattern(preds ...Pred) Pattern {
	return Pattern{preds: append([]Pred(nil), preds...)}
}

// AllWild returns a pattern of the given arity matching every tuple.
func AllWild(arity int) Pattern {
	preds := make([]Pred, arity)
	for i := range preds {
		preds[i] = Wild
	}
	return Pattern{preds: preds}
}

// OnAttr returns a pattern of the given arity with a single non-wildcard
// predicate at attribute i. This is the most common feedback shape, e.g.
// ¬[*, *, ≤ts] is OnAttr(3, 2, Le(ts)).
func OnAttr(arity, i int, p Pred) Pattern {
	pat := AllWild(arity)
	pat.preds[i] = p
	return pat
}

// Arity returns the number of attribute predicates.
func (p Pattern) Arity() int { return len(p.preds) }

// Pred returns the predicate at attribute i.
func (p Pattern) Pred(i int) Pred { return p.preds[i] }

// With returns a copy of the pattern with attribute i replaced.
func (p Pattern) With(i int, pred Pred) Pattern {
	out := append([]Pred(nil), p.preds...)
	out[i] = pred
	return Pattern{preds: out}
}

// IsAllWild reports whether every predicate is the wildcard.
func (p Pattern) IsAllWild() bool {
	for _, pr := range p.preds {
		if !pr.IsWild() {
			return false
		}
	}
	return true
}

// Bound returns the indices of non-wildcard attributes. The paper calls a
// pattern with exactly one bound attribute a "single-attribute" punctuation;
// propagation safety analysis (core.SafePropagation) depends on this set.
func (p Pattern) Bound() []int {
	var out []int
	for i, pr := range p.preds {
		if !pr.IsWild() {
			out = append(out, i)
		}
	}
	return out
}

// Progress reads p as progress punctuation: exactly one bound attribute, of
// an integer-ordered kind (int or time), bound from above by ≤ or <. It
// returns that attribute and the inclusive bound — "no more tuples at or
// below incl on attr" — and allocates nothing (contrast Bound).
func (p Pattern) Progress() (attr int, incl int64, ok bool) {
	attr = -1
	for i, pr := range p.preds {
		if pr.IsWild() {
			continue
		}
		if attr >= 0 {
			return -1, 0, false // more than one bound attribute
		}
		if pr.Val.Kind != stream.KindInt && pr.Val.Kind != stream.KindTime {
			return -1, 0, false
		}
		switch pr.Op {
		case LE:
			incl = pr.Val.I
		case LT:
			incl = pr.Val.I - 1
		default:
			return -1, 0, false
		}
		attr = i
	}
	return attr, incl, attr >= 0
}

// Matches reports whether the tuple satisfies every attribute predicate.
//
//pace:hotpath
func (p Pattern) Matches(t stream.Tuple) bool {
	if len(p.preds) != t.Arity() {
		return false
	}
	for i, pr := range p.preds {
		if !pr.Matches(t.At(i)) {
			return false
		}
	}
	return true
}

// Implies reports whether p ⇒ q: every tuple matching p also matches q.
// Conservative (false means "unproven").
func (p Pattern) Implies(q Pattern) bool {
	if len(p.preds) != len(q.preds) {
		return false
	}
	for i := range p.preds {
		if !p.preds[i].Implies(q.preds[i]) {
			return false
		}
	}
	return true
}

// Project maps the pattern onto a different attribute space. mapping[i]
// gives, for each output attribute i of the projected pattern, the source
// attribute in p, or -1 if the output attribute has no corresponding source
// (the predicate becomes wildcard).
//
// Project implements the schema-mapping step of feedback propagation: a
// JOIN with output (L, J, R) propagating to its left input (L, J) projects
// the feedback pattern through the identity on L∪J and drops R.
func (p Pattern) Project(mapping []int) Pattern {
	out := make([]Pred, len(mapping))
	for i, src := range mapping {
		if src < 0 || src >= len(p.preds) {
			out[i] = Wild
		} else {
			out[i] = p.preds[src]
		}
	}
	return Pattern{preds: out}
}

// Equal reports structural equality of patterns.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.preds) != len(q.preds) {
		return false
	}
	for i := range p.preds {
		if !predEqual(p.preds[i], q.preds[i]) {
			return false
		}
	}
	return true
}

func predEqual(a, b Pred) bool {
	if a.Op != b.Op {
		return false
	}
	switch a.Op {
	case Any, IsNull:
		return true
	case Between:
		return a.Val.Equal(b.Val) && a.Hi.Equal(b.Hi)
	case In:
		if len(a.Set) != len(b.Set) {
			return false
		}
		for i := range a.Set {
			if !a.Set[i].Equal(b.Set[i]) {
				return false
			}
		}
		return true
	default:
		return a.Val.Equal(b.Val)
	}
}

// String renders the pattern in the paper's bracket notation, e.g.
// [*, *, <=2008-12-08T09:00:00.000000Z].
func (p Pattern) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, pr := range p.preds {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(pr.String())
	}
	b.WriteByte(']')
	return b.String()
}
