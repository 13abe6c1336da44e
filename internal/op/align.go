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
// matching tuples. An input at EOS covers everything. Two representations
// back the rule so the steady-state path performs no allocation:
//
//   - progress punctuation (punct.Pattern.Progress: one attribute bound
//     from above) is kept as per-(input, attribute) int64 frontiers, and
//     the minimum across live inputs is asserted when it advances;
//   - any other pattern waits in a small pending list, checked with
//     punct.Pattern.Implies against what each input has asserted.
//
// Nothing is asserted twice: a frontier that did not advance and a pattern
// the asserted frontier already subsumes are dropped.
type aligner struct {
	schema stream.Schema
	ins    []alignInput
	// wmOut/wmOutSet track the aligned frontier per attribute so
	// non-advancing arrivals assert nothing.
	wmOut    []int64
	wmOutSet []bool
	// pending holds non-progress patterns not yet covered by every live
	// input.
	pending []punct.Pattern
	// out backs the slice punct and eos return; reused, never captured.
	out []punct.Pattern
}

// alignInput is per-input alignment state.
type alignInput struct {
	eos bool
	// wm/wmSet hold the inclusive per-attribute frontier this input has
	// punctuated.
	wm    []int64
	wmSet []bool
	// asserted holds the non-progress patterns this input has emitted, with
	// subsumed entries replaced in place.
	asserted []punct.Pattern
}

func newAligner(schema stream.Schema, k int) aligner {
	arity := schema.Arity()
	al := aligner{
		schema:   schema,
		ins:      make([]alignInput, k),
		wmOut:    make([]int64, arity),
		wmOutSet: make([]bool, arity),
	}
	for i := range al.ins {
		al.ins[i] = alignInput{wm: make([]int64, arity), wmSet: make([]bool, arity)}
	}
	return al
}

// punct records that input asserted p and returns the patterns the combined
// stream may now assert, in the order to emit them. The slice is valid until
// the next call.
func (al *aligner) punct(input int, p punct.Pattern) []punct.Pattern {
	al.out = al.out[:0]
	if p.Arity() != al.schema.Arity() {
		return nil // not a pattern over this stream; consume it
	}
	in := &al.ins[input]
	if attr, incl, ok := p.Progress(); ok {
		if !in.wmSet[attr] || incl > in.wm[attr] {
			in.wmSet[attr] = true
			in.wm[attr] = incl
			al.pruneAsserted(in)
		}
		al.advance(attr)
	} else {
		if !al.frontierCovers(in.wm, in.wmSet, p) {
			// Stored only when the input's own frontier does not already
			// cover it (covers checks the frontier first).
			in.assert(p)
		}
		if !al.pendingHas(p) {
			al.pending = append(al.pending, p)
		}
	}
	al.recheckPending()
	return al.out
}

// eos records that input ended — it stops constraining alignment, which may
// release frontiers and pending patterns — and returns what punct would.
func (al *aligner) eos(input int) []punct.Pattern {
	al.out = al.out[:0]
	al.ins[input].eos = true
	for a := range al.wmOut {
		al.advance(a)
	}
	al.recheckPending()
	return al.out
}

// le is the predicate "≤ v" on attr, in the attribute's own kind.
func (al *aligner) le(attr int, v int64) punct.Pred {
	return punct.Le(stream.Ordinal(al.schema.Field(attr).Kind, v))
}

// assert records a non-progress pattern, replacing any entry the new
// pattern subsumes (q ⇒ p means p's no-more guarantee covers q's) and
// dropping the new pattern when an existing entry already covers it.
func (in *alignInput) assert(p punct.Pattern) {
	for i, q := range in.asserted {
		if p.Implies(q) {
			return // existing guarantee already covers p
		}
		if q.Implies(p) {
			in.asserted[i] = p // p covers strictly more; replace in place
			return
		}
	}
	in.asserted = append(in.asserted, p)
}

// frontierCovers reports whether a frontier alone covers p:
// p ⇒ [*,…,≤wm@a,…,*] iff p's predicate at a implies ≤wm, and one covered
// conjunct excludes the whole tuple.
func (al *aligner) frontierCovers(wm []int64, set []bool, p punct.Pattern) bool {
	for a := range wm {
		if set[a] && p.Pred(a).Implies(al.le(a, wm[a])) {
			return true
		}
	}
	return false
}

// covers reports whether in's accumulated guarantees promise that no more
// tuples matching p will arrive from it.
func (al *aligner) covers(in *alignInput, p punct.Pattern) bool {
	if in.eos || al.frontierCovers(in.wm, in.wmSet, p) {
		return true
	}
	for _, q := range in.asserted {
		if p.Implies(q) {
			return true
		}
	}
	return false
}

// pruneAsserted drops asserted patterns the input's own frontier now
// subsumes: anything they could cover, the frontier covers too, so the list
// stays bounded on long-running streams whenever patterns carry a bound on a
// punctuated (delimited, §4.4) attribute. Patterns binding only
// never-punctuated attributes accumulate — the same inherent growth as
// punct.Scheme's closed-value sets.
func (al *aligner) pruneAsserted(in *alignInput) {
	kept := in.asserted[:0]
	for _, q := range in.asserted {
		if !al.frontierCovers(in.wm, in.wmSet, q) {
			kept = append(kept, q)
		}
	}
	clear(in.asserted[len(kept):]) // release dropped patterns to the GC
	in.asserted = kept
}

// advance folds per-input frontiers on one attribute and asserts the
// minimum when it advances. Inputs at EOS no longer constrain it; a live
// input that has never punctuated the attribute blocks alignment (it may
// still produce arbitrarily old tuples).
func (al *aligner) advance(attr int) {
	var minv int64
	first := true
	for i := range al.ins {
		in := &al.ins[i]
		if in.eos {
			continue
		}
		if !in.wmSet[attr] {
			return
		}
		if first || in.wm[attr] < minv {
			minv = in.wm[attr]
			first = false
		}
	}
	if first {
		return // every input at EOS: nothing left to assert
	}
	if al.wmOutSet[attr] && minv <= al.wmOut[attr] {
		return
	}
	al.wmOutSet[attr] = true
	al.wmOut[attr] = minv
	al.out = append(al.out, punct.OnAttr(al.schema.Arity(), attr, al.le(attr, minv)))
}

// recheckPending re-tests pending patterns, asserting the newly covered
// ones in arrival order and dropping ones the asserted frontier already
// subsumes (late or duplicate punctuation stays bounded).
func (al *aligner) recheckPending() {
	if len(al.pending) == 0 {
		return
	}
	kept := al.pending[:0]
	for _, p := range al.pending {
		switch {
		case al.frontierCovers(al.wmOut, al.wmOutSet, p):
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
	for i := range al.ins {
		if !al.covers(&al.ins[i], p) {
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
