package punct

import (
	"repro/internal/stream"
)

// Embedded is punctuation that flows with the data stream (Tucker et al.;
// §3.1 of the paper). It asserts that no future tuple in the stream will
// match Pattern. Operators use embedded punctuation to unblock (emit
// finished windows) and to purge state.
type Embedded struct {
	Pattern Pattern
}

// NewEmbedded wraps a pattern as embedded punctuation.
func NewEmbedded(p Pattern) Embedded { return Embedded{Pattern: p} }

// String renders the punctuation in bracket notation.
func (e Embedded) String() string { return e.Pattern.String() }

// Scheme tracks, per attribute, the strongest progress guarantee seen so
// far from embedded punctuation, and answers which attributes are
// "delimited" in the paper's sense (§4.4): covered by progressing embedded
// punctuation, and therefore able to support feedback without unbounded
// state accumulation.
//
// The tracker recognises the practical punctuation shapes — prefix
// punctuation ≤v / <v on an ordered attribute (progress watermarks) and
// exact-value punctuation =v / in-set (e.g. "auction #4 has closed").
type Scheme struct {
	arity int
	// watermark[i] holds the highest inclusive bound asserted for
	// attribute i by prefix punctuation, or nil if none seen.
	watermark []*Pred
	// closed[i] accumulates exact values asserted complete for attribute i.
	closed [][]stream.Value
	// seen counts punctuations observed per attribute.
	seen []int
}

// NewScheme creates a tracker for streams of the given arity.
func NewScheme(arity int) *Scheme {
	return &Scheme{
		arity:     arity,
		watermark: make([]*Pred, arity),
		closed:    make([][]stream.Value, arity),
		seen:      make([]int, arity),
	}
}

// Observe folds one embedded punctuation into the tracker. Only
// single-attribute punctuations advance per-attribute guarantees;
// multi-attribute punctuations are recorded but conservatively ignored for
// delimitation.
func (s *Scheme) Observe(e Embedded) {
	if e.Pattern.Arity() != s.arity {
		return
	}
	// Inline single-bound-attribute scan: this runs per punctuation per
	// guard table, so it must not allocate (Pattern.Bound builds a slice).
	i := -1
	for a := 0; a < s.arity; a++ {
		if e.Pattern.Pred(a).IsWild() {
			continue
		}
		if i >= 0 {
			return // multi-attribute: recorded nowhere, ignored for delimitation
		}
		i = a
	}
	if i < 0 {
		return
	}
	s.seen[i]++
	pr := e.Pattern.Pred(i)
	switch pr.Op {
	case LE, LT:
		w := s.watermark[i]
		switch {
		case w == nil:
			p := pr
			s.watermark[i] = &p
		case w.Op == pr.Op:
			// Same-shape prefix bounds widen iff the new bound is strictly
			// larger: one value comparison instead of two Implies walks
			// (this path runs per punctuation per guard table).
			if c, ok := pr.Val.Compare(w.Val); ok && c > 0 {
				*w = pr // overwrite in place: no per-punct allocation
			}
		case widens(*w, pr):
			*w = pr
		}
	case EQ:
		s.closed[i] = append(s.closed[i], pr.Val)
	case In:
		s.closed[i] = append(s.closed[i], pr.Set...)
	}
}

// widens reports whether candidate covers strictly more than current
// (both LE/LT preds on the same attribute).
func widens(current, candidate Pred) bool {
	return current.Implies(candidate) && !candidate.Implies(current)
}

// Delimited reports whether attribute i has shown progressing punctuation,
// i.e. supports feedback whose state will eventually be released.
func (s *Scheme) Delimited(i int) bool {
	if i < 0 || i >= s.arity {
		return false
	}
	return s.watermark[i] != nil || len(s.closed[i]) > 0
}

// CoversPattern reports whether the accumulated guarantees cover the given
// pattern (every tuple matching p is promised to never appear again). It
// checks single-attribute patterns against the watermark and closed-value
// sets; multi-attribute patterns are covered if ANY bound attribute is
// covered (a tuple must match all conjuncts to match p, so excluding one
// conjunct excludes the tuple). It runs per guard per punctuation, so it
// walks the predicates in place (Pattern.Bound builds a slice).
func (s *Scheme) CoversPattern(p Pattern) bool {
	if p.Arity() != s.arity {
		return false
	}
	for i := range s.arity {
		if pr := p.Pred(i); !pr.IsWild() && s.coversPred(i, pr) {
			return true
		}
	}
	return false
}

func (s *Scheme) coversPred(i int, pr Pred) bool {
	if w := s.watermark[i]; w != nil && pr.Implies(*w) {
		return true
	}
	// Exact-value feedback covered by closed values.
	if pr.Op == EQ {
		for _, v := range s.closed[i] {
			if v.Equal(pr.Val) {
				return true
			}
		}
	}
	if pr.Op == In && len(pr.Set) > 0 {
		matched := 0
		for _, want := range pr.Set {
			for _, v := range s.closed[i] {
				if v.Equal(want) {
					matched++
					break
				}
			}
		}
		return matched == len(pr.Set)
	}
	return false
}

// Supportable implements the paper's §4.4 test for feedback admissibility:
// a feedback pattern is supportable when every bound attribute is
// delimited, so that the guard/state it induces is guaranteed to be
// releasable by future embedded punctuation. ("Don't show bids more than
// $1.00" is unsupportable because amounts are never punctuated.)
func (s *Scheme) Supportable(p Pattern) bool {
	bound := p.Bound()
	if len(bound) == 0 {
		return false
	}
	for _, i := range bound {
		if !s.Delimited(i) {
			return false
		}
	}
	return true
}
