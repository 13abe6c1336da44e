package core

import (
	"fmt"

	"repro/internal/stream"
)

// The paper defines correctness only for assumed punctuation (§4) and
// leaves desired and demanded "for future work" (§8). This file supplies
// those definitions, in the same executable style as CheckExploitation:
//
// Desired (?): prioritization "does not change the overall result of the
// issuing operator, but affects ... the production time and order of its
// result stream" (§3.4). Correct exploitation therefore requires
//
//	multiset(S) == multiset(SR),
//
// and useful exploitation additionally moves subset tuples earlier in the
// production order.
//
// Demanded (!): the issuer accepts approximate results for the subset.
// Correct exploitation requires every reference result to still be
// produced, and permits extra (partial) results only inside the demanded
// subset:
//
//	SR ⊆ S  ∧  (S − SR) ⊆ subset(S, f).

// DesiredReport is the outcome of a desired-punctuation check.
type DesiredReport struct {
	// SetChanged lists tuples whose multiplicity differs between runs
	// (any entry is a violation).
	SetChanged []stream.Tuple
	// MeanRankRef and MeanRankActual are the average positions (0-based)
	// of subset tuples in each run; exploitation should not increase it.
	MeanRankRef, MeanRankActual float64
	// SubsetCount is the number of subset tuples observed.
	SubsetCount int
}

// OK reports whether the run satisfied the desired-punctuation contract
// (result set unchanged; rank movement is advisory, not a violation).
func (r DesiredReport) OK() bool { return len(r.SetChanged) == 0 }

// Err returns nil if the contract held.
//
//pace:allow-unreached a §8 reference check's verdict as an error, for tests; ROADMAP item 24's experiment reports it
func (r DesiredReport) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("core: desired exploitation changed the result set (%d tuples differ)", len(r.SetChanged))
}

// CheckDesired verifies the desired-punctuation contract between a
// reference run (no exploitation) and an actual run (with ?f exploited).
func CheckDesired(reference, actual []stream.Tuple, f Feedback) DesiredReport {
	rep := DesiredReport{}
	counts := map[string]int{}
	byKey := map[string]stream.Tuple{}
	for _, t := range reference {
		k := allKey(t)
		counts[k]++
		byKey[k] = t
	}
	for _, t := range actual {
		k := allKey(t)
		counts[k]--
		byKey[k] = t
	}
	for k, n := range counts {
		for i := 0; i < abs(n); i++ {
			rep.SetChanged = append(rep.SetChanged, byKey[k])
		}
	}
	rep.MeanRankRef, _ = meanSubsetRank(reference, f)
	rep.MeanRankActual, rep.SubsetCount = meanSubsetRank(actual, f)
	return rep
}

func meanSubsetRank(ts []stream.Tuple, f Feedback) (float64, int) {
	sum, n := 0.0, 0
	for i, t := range ts {
		if f.Matches(t) {
			sum += float64(i)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// DemandedReport is the outcome of a demanded-punctuation check.
type DemandedReport struct {
	// Missing are reference results absent from the actual run (the
	// final, exact answers must still appear).
	Missing []stream.Tuple
	// BadExtras are extra results OUTSIDE the demanded subset — partials
	// are only licensed for the subset the issuer demanded.
	BadExtras []stream.Tuple
	// Partials counts the licensed extra results (inside the subset).
	Partials int
}

// OK reports whether the run satisfied the demanded-punctuation contract.
func (r DemandedReport) OK() bool { return len(r.Missing) == 0 && len(r.BadExtras) == 0 }

// Err returns nil if the contract held.
//
//pace:allow-unreached a §8 reference check's verdict as an error, for tests; ROADMAP item 24's experiment reports it
func (r DemandedReport) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("core: demanded exploitation incorrect: %d exact results missing, %d unlicensed extras",
		len(r.Missing), len(r.BadExtras))
}

// CheckDemanded verifies the demanded-punctuation contract between a
// reference run and an actual run with !f exploited.
//
//pace:allow-unreached §8's demanded-feedback reference check; ROADMAP item 24's experiment runs it, or the demanded branches go
func CheckDemanded(reference, actual []stream.Tuple, f Feedback) DemandedReport {
	rep := DemandedReport{}
	remaining := map[string]int{}
	byKey := map[string]stream.Tuple{}
	for _, t := range actual {
		k := allKey(t)
		remaining[k]++
		byKey[k] = t
	}
	for _, t := range reference {
		k := allKey(t)
		if remaining[k] > 0 {
			remaining[k]--
			continue
		}
		rep.Missing = append(rep.Missing, t)
	}
	for k, n := range remaining {
		t := byKey[k]
		for i := 0; i < n; i++ {
			if f.Matches(t) {
				rep.Partials++
			} else {
				rep.BadExtras = append(rep.BadExtras, t)
			}
		}
	}
	return rep
}

func allKey(t stream.Tuple) string {
	idx := make([]int, t.Arity())
	for i := range idx {
		idx[i] = i
	}
	return t.Key(idx)
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
