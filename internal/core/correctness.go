package core

import (
	"fmt"
	"slices"

	"repro/internal/punct"
	"repro/internal/stream"
)

// This file implements §4's notions of correctness as executable checks.
//
// Definition 1 (correct exploitation): operator O, consuming SI and
// normally producing SR, correctly exploits assumed punctuation f iff the
// stream S it actually produces satisfies
//
//	SR − subset(SR, f)  ⊆  S  ⊆  SR.
//
// The lower bound says exploitation may drop only tuples in the feedback
// subset; the upper bound says exploitation may never invent tuples. The
// null response (S ≡ SR) is correct.
//
// Definition 2 (safe propagation): O safely propagates g iff any
// antecedent's exploitation of g cannot alter O's own correct exploitation
// of the feedback O received.

// ExploitReport is the outcome of an exploitation check.
type ExploitReport struct {
	// Missing are tuples in SR − subset(SR,f) that S failed to produce
	// (violations of the lower bound).
	Missing []stream.Tuple
	// Extra are tuples in S that are not in SR (violations of the upper
	// bound).
	Extra []stream.Tuple
	// Suppressed counts tuples of subset(SR,f) legitimately omitted.
	Suppressed int
}

// OK reports whether the run satisfied Definition 1.
func (r ExploitReport) OK() bool { return len(r.Missing) == 0 && len(r.Extra) == 0 }

// Err returns nil if the run is correct, or a descriptive error.
func (r ExploitReport) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("core: exploitation incorrect: %d required tuples missing, %d invented tuples", len(r.Missing), len(r.Extra))
}

// CheckExploitation verifies Definition 1 on recorded runs: reference is
// SR (the output with no feedback), actual is S (the output with feedback f
// exploited). Multiset semantics: duplicates count.
//
// The check treats streams as unordered multisets, consistent with the
// OOP architecture where output order is not part of operator semantics.
func CheckExploitation(reference, actual []stream.Tuple, f Feedback) ExploitReport {
	var rep ExploitReport
	// Multiset of actual tuples, keyed canonically on all attributes.
	remaining := map[string]int{}
	actualByKey := map[string]stream.Tuple{}
	allIdx := func(t stream.Tuple) []int {
		idx := make([]int, t.Arity())
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	for _, t := range actual {
		k := t.Key(allIdx(t))
		remaining[k]++
		actualByKey[k] = t
	}
	for _, t := range reference {
		k := t.Key(allIdx(t))
		if remaining[k] > 0 {
			remaining[k]--
			continue
		}
		// Absent from actual: legal only if the tuple is in the
		// feedback subset.
		if f.Matches(t) {
			rep.Suppressed++
		} else {
			rep.Missing = append(rep.Missing, t)
		}
	}
	for k, n := range remaining {
		for i := 0; i < n; i++ {
			rep.Extra = append(rep.Extra, actualByKey[k])
		}
	}
	return rep
}

// AttrMap describes how an operator's output attributes relate to one
// input's attributes, for feedback propagation. For output attribute j,
// ToInput[j] is the index of the input attribute carrying the same value,
// or -1 if the output attribute is computed, constant, or comes from a
// different input.
type AttrMap struct {
	// InputArity is the arity of the target input schema.
	InputArity int
	// ToInput maps output attribute index → input attribute index (or -1).
	ToInput []int
}

// Identity returns the identity mapping for arity n (e.g. SELECT).
func Identity(n int) AttrMap {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return AttrMap{InputArity: n, ToInput: m}
}

// IsIdentity reports whether the mapping carries every input attribute in
// order: a rename at most, which relays tuples and patterns unchanged.
func (m AttrMap) IsIdentity() bool {
	if len(m.ToInput) != m.InputArity {
		return false
	}
	for out, in := range m.ToInput {
		if in != out {
			return false
		}
	}
	return true
}

// InputPattern projects an output-schema pattern into the input schema:
// input attribute i receives the predicate of the output attribute that
// carries it, of a bound one where several do (wildcard if none).
func (m AttrMap) InputPattern(p punct.Pattern) punct.Pattern {
	// Build inverse mapping input attr → output attr.
	inv := make([]int, m.InputArity)
	for i := range inv {
		inv[i] = -1
	}
	for out, in := range m.ToInput {
		if in >= 0 && in < m.InputArity && (inv[in] < 0 || out < p.Arity() && !p.Pred(out).IsWild()) {
			inv[in] = out
		}
	}
	return p.Project(inv)
}

// OutputPattern relays an input-schema punctuation pattern downstream, the
// mirror of SafePropagation: input attribute i goes to the first output
// attribute that carries it, every other output is a wildcard. ok is false —
// the punctuation is consumed — unless every bound attribute of p is
// carried: input punctuation [a=5, ts≤10] does not promise the absence of
// future tuples with a=6, ts≤9, so a mapping that drops a cannot emit
// [ts≤10].
func (m AttrMap) OutputPattern(p punct.Pattern) (punct.Pattern, bool) {
	for i := 0; i < p.Arity(); i++ {
		if !p.Pred(i).IsWild() && !slices.Contains(m.ToInput, i) {
			return punct.Pattern{}, false
		}
	}
	first := make([]int, len(m.ToInput)) // output attr → the input attr it relays
	for out, in := range m.ToInput {
		first[out] = in
		if slices.Contains(m.ToInput[:out], in) {
			first[out] = -1
		}
	}
	return p.Project(first), true
}

// Propagation is the result of a safety analysis.
type Propagation struct {
	// OK reports whether a safe propagation exists for this input.
	OK bool
	// Pattern is the safe input-schema pattern (valid when OK).
	Pattern punct.Pattern
	// Reason explains refusals, for diagnostics.
	Reason string
}

// SafePropagation decides whether assumed feedback with output-schema
// pattern p can be propagated to an input described by mapping m, and if
// so, produces the propagated pattern (Definition 2).
//
// The rule (§4.2): the bound attributes of p must ALL be carried by the
// mapping. If any bound conjunct is lost in projection, suppressing input
// tuples that merely match the carried conjuncts could remove output
// tuples NOT in the feedback subset — the paper's ¬[50,*,*,50] example,
// where projecting either side would wrongly suppress <49,2,3,50>.
//
// One refinement the paper notes implicitly: the lost conjuncts must be
// lost, not merely bound to another input. A pattern whose bound
// attributes split across two join inputs has no safe propagation to
// either side (unless one side carries all of them).
func SafePropagation(p punct.Pattern, m AttrMap) Propagation {
	if len(m.ToInput) != p.Arity() {
		return Propagation{Reason: fmt.Sprintf("mapping arity %d != pattern arity %d", len(m.ToInput), p.Arity())}
	}
	if p.IsAllWild() {
		// ¬[*,…,*] would suppress the entire input; it is technically
		// propagable but semantically a shutdown, handled elsewhere.
		return Propagation{Reason: "all-wildcard pattern: use shutdown, not feedback"}
	}
	bound := p.Bound()
	for i, j := range bound {
		if m.ToInput[j] < 0 {
			return Propagation{Reason: fmt.Sprintf("output attribute %d is bound by the pattern but not carried to this input", j)}
		}
		for _, k := range bound[:i] {
			if m.ToInput[k] == m.ToInput[j] {
				// One input attribute would need both predicates at once.
				return Propagation{Reason: fmt.Sprintf("output attributes %d and %d carry one input attribute and are both bound", k, j)}
			}
		}
	}
	return Propagation{OK: true, Pattern: m.InputPattern(p)}
}

// SafePropagationMulti analyses propagation of p to several inputs at once
// (e.g. a join's two inputs) and returns one Propagation per input.
// An input's propagation is safe only if that input alone carries every
// bound attribute of p.
func SafePropagationMulti(p punct.Pattern, maps []AttrMap) []Propagation {
	out := make([]Propagation, len(maps))
	for i, m := range maps {
		out[i] = SafePropagation(p, m)
	}
	return out
}
