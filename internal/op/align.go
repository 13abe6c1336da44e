package op

import (
	"repro/internal/punct"
	"repro/internal/stream"
)

// aligner is the fan-in rule for embedded punctuation, shared by every
// operator that combines K same-schema inputs (Merge — which is also the
// plan's UNION — and Pace): a pattern may be asserted on the combined
// stream only once EVERY live input has asserted punctuation implying it,
// because an input that has not covered the pattern may still produce
// matching tuples. An input at EOS covers everything.
//
// What each input has promised is a punct.Scheme, the tracker that also
// expires guards. Progress punctuation advances its frontier, and the
// minimum across live inputs is asserted when it advances; any other
// pattern waits in a small pending list until every input's tracker covers
// it. Nothing is asserted twice: a frontier that did not advance and a
// pattern the asserted frontier already covers are dropped. The steady
// state allocates nothing.
type aligner struct {
	schema   stream.Schema
	promised []*punct.Scheme
	ended    []bool
	// sent holds the frontier asserted on the combined stream, so
	// non-advancing arrivals assert nothing; only progress goes into it.
	sent *punct.Scheme
	// pending holds non-progress patterns not yet covered by every live
	// input.
	pending []punct.Pattern
	// out backs the slice punct and eos return; reused, never captured.
	out []punct.Pattern
}

func newAligner(schema stream.Schema, k int) aligner {
	al := aligner{
		schema:   schema,
		promised: make([]*punct.Scheme, k),
		ended:    make([]bool, k),
		sent:     punct.NewScheme(schema.Arity()),
	}
	for i := range al.promised {
		al.promised[i] = punct.NewScheme(schema.Arity())
	}
	return al
}

// punct records that input asserted e and returns the patterns the combined
// stream may now assert, in the order to emit them. The slice is valid until
// the next call.
func (al *aligner) punct(input int, e punct.Embedded) []punct.Pattern {
	al.out = al.out[:0]
	p := e.Pattern
	if p.Arity() != al.schema.Arity() {
		return nil // not a pattern over this stream; consume it
	}
	al.promised[input].Observe(e)
	if attr, _, ok := p.Progress(); ok {
		al.advance(attr)
	} else if !al.pendingHas(p) {
		al.pending = append(al.pending, p)
	}
	al.recheckPending()
	return al.out
}

// eos records that input ended — it stops constraining alignment, which may
// release frontiers and pending patterns — and returns what punct would.
func (al *aligner) eos(input int) []punct.Pattern {
	al.out = al.out[:0]
	al.ended[input] = true
	for a := range al.schema.Arity() {
		al.advance(a)
	}
	al.recheckPending()
	return al.out
}

// le is the predicate "≤ v" on attr, in the attribute's own kind.
func (al *aligner) le(attr int, v int64) punct.Pred {
	return punct.Le(stream.Ordinal(al.schema.Field(attr).Kind, v))
}

// advance folds per-input frontiers on one attribute and asserts the
// minimum when it advances. Inputs at EOS no longer constrain it; a live
// input that has never punctuated the attribute blocks alignment (it may
// still produce arbitrarily old tuples).
func (al *aligner) advance(attr int) {
	var minv int64
	first := true
	for i, in := range al.promised {
		if al.ended[i] {
			continue
		}
		wm, set, _ := in.State()
		if !set[attr] {
			return
		}
		if first || wm[attr] < minv {
			minv, first = wm[attr], false
		}
	}
	if first {
		return // every input at EOS: nothing left to assert
	}
	if wm, set, _ := al.sent.State(); set[attr] && minv <= wm[attr] {
		return
	}
	p := punct.OnAttr(al.schema.Arity(), attr, al.le(attr, minv))
	al.sent.Observe(punct.NewEmbedded(p))
	al.out = append(al.out, p)
}

// recheckPending re-tests pending patterns, asserting the newly covered
// ones in arrival order and dropping ones the asserted frontier already
// covers (late or duplicate punctuation stays bounded).
func (al *aligner) recheckPending() {
	if len(al.pending) == 0 {
		return
	}
	kept := al.pending[:0]
	for _, p := range al.pending {
		switch {
		case al.sent.CoversPattern(p):
			// Already promised downstream; drop silently.
		case al.coveredByAll(p):
			al.out = append(al.out, p)
		default:
			kept = append(kept, p)
		}
	}
	clear(al.pending[len(kept):])
	al.pending = kept
}

// coveredByAll reports whether every live input covers p.
func (al *aligner) coveredByAll(p punct.Pattern) bool {
	for i, in := range al.promised {
		if !al.ended[i] && !in.CoversPattern(p) {
			return false
		}
	}
	return true
}

func (al *aligner) pendingHas(p punct.Pattern) bool {
	for _, q := range al.pending {
		if p.Equal(q) {
			return true
		}
	}
	return false
}
