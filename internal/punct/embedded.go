package punct

import (
	"slices"

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

// Scheme is the one record of what a stream has promised through its
// embedded punctuation: "no more tuples matching p", for every p observed.
// It answers CoversPattern — has the stream promised every tuple of p? —
// for each core.GuardTable (§4.4: a guard goes once its pattern is covered)
// and, one per input, for the fan-in aligner (a pattern is forwarded once
// every live input covers it).
//
// Two representations keep it small and the steady state allocation-free:
//
//   - progress punctuation (Pattern.Progress, its one reader: one attribute
//     of an integer-ordered kind bound from above) advances a per-attribute
//     int64 frontier;
//   - any other pattern is recorded unless already covered, replacing the
//     recorded patterns it subsumes; a frontier that advances prunes the
//     ones it covers.
//
// A pattern binding only never-punctuated attributes stays recorded until
// Forget, which an owner with nothing left to expire calls.
type Scheme struct {
	// frontier[a], when set[a], is the inclusive bound below which
	// attribute a is promised complete.
	frontier []int64
	set      []bool
	recorded []Pattern
}

// NewScheme creates a tracker for streams of the given arity.
func NewScheme(arity int) *Scheme {
	return &Scheme{frontier: make([]int64, arity), set: make([]bool, arity)}
}

// Observe folds one embedded punctuation into the tracker. Punctuation of
// another arity describes no tuple of this stream and is ignored.
func (s *Scheme) Observe(e Embedded) {
	p := e.Pattern
	if p.Arity() != len(s.frontier) {
		return
	}
	if a, incl, ok := p.Progress(); ok {
		if !s.set[a] || incl > s.frontier[a] {
			s.frontier[a], s.set[a] = incl, true
			s.recorded = slices.DeleteFunc(s.recorded, func(q Pattern) bool { return s.frontierCovers(a, q.Pred(a)) })
		}
		return
	}
	if s.CoversPattern(p) {
		return
	}
	s.recorded = append(slices.DeleteFunc(s.recorded, func(q Pattern) bool { return q.Implies(p) }), p)
}

// Forget drops the recorded patterns and keeps the frontier. A pattern
// the dropped ones covered is covered again only by later punctuation.
func (s *Scheme) Forget() {
	clear(s.recorded)
	s.recorded = s.recorded[:0]
}

// State exposes the tracker's content — the frontier, which attributes it
// bounds, and the recorded patterns — for reading, for a checkpoint layout
// to declare, and for a restore to write back.
func (s *Scheme) State() (frontier []int64, set []bool, recorded *[]Pattern) {
	return s.frontier, s.set, &s.recorded
}

// CoversPattern reports whether the stream has promised that no more tuples
// matching p will appear. A tuple must match every conjunct of p, so p is
// covered when
//
//   - the frontier covers one of its bound conjuncts, or
//   - p implies a recorded pattern, or
//   - for one attribute bound by an In set, each value's share of p is
//     covered (the set closed element by element; an = is the second case).
//
// It runs per guard per punctuation, so it walks the predicates in place.
func (s *Scheme) CoversPattern(p Pattern) bool {
	if p.Arity() != len(s.frontier) {
		return false
	}
	for a := range s.frontier {
		if s.frontierCovers(a, p.Pred(a)) {
			return true
		}
	}
	for _, q := range s.recorded {
		if p.Implies(q) {
			return true
		}
	}
	for a := range s.frontier {
		if pr := p.Pred(a); pr.Op == In && len(pr.Set) > 0 && s.coversEach(p, a, pr.Set) {
			return true
		}
	}
	return false
}

// frontierCovers reports whether attribute a's frontier covers pr. The bound
// is rebuilt in pr's ordinal kind: an attribute's values have one kind, and
// a predicate over another kind matches none of them.
func (s *Scheme) frontierCovers(a int, pr Pred) bool {
	if !s.set[a] {
		return false
	}
	k := pr.Val.Kind
	if pr.Op == In && len(pr.Set) > 0 {
		k = pr.Set[0].Kind
	}
	if k != stream.KindTime {
		k = stream.KindInt
	}
	return pr.Implies(Le(stream.Ordinal(k, s.frontier[a])))
}

// coversEach reports whether, for every v in vals, the tuples of p whose
// attribute a equals v are covered: by the frontier, or by one recorded
// pattern that matches v at a and that p implies elsewhere.
func (s *Scheme) coversEach(p Pattern, a int, vals []stream.Value) bool {
	for _, v := range vals {
		if !s.frontierCovers(a, Eq(v)) && !s.recordedCovers(p, a, v) {
			return false
		}
	}
	return true
}

func (s *Scheme) recordedCovers(p Pattern, a int, v stream.Value) bool {
next:
	for _, q := range s.recorded {
		if !q.Pred(a).Matches(v) {
			continue
		}
		for i := range p.preds {
			if i != a && !p.preds[i].Implies(q.preds[i]) {
				continue next
			}
		}
		return true
	}
	return false
}
