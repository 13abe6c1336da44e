// Package op implements the query operators of the reproduction: the
// standard relational stream operators (SELECT, PROJECT, DUPLICATE, UNION,
// windowed aggregates, symmetric-hash JOIN) plus the paper's specialized
// operators (PACE, IMPUTE, THRIFTY/IMPATIENT JOIN variants, PRIORITIZE).
//
// Every operator runs under the exec runtime and, where the paper
// characterizes it, plays the producer / exploiter / relayer feedback roles
// using the characterizations in package core. Operators keep a response
// log (core.Response) that tests and `cmd/experiments tables` inspect to
// verify enacted behaviour against Tables 1 and 2.
package op

import (
	"repro/internal/core"
	"repro/internal/punct"
)

// FeedbackMode selects how far an exploiting operator goes when it receives
// assumed feedback. The Figure 7 schemes map onto it:
//
//	F0 = FeedbackIgnore everywhere
//	F1 = FeedbackGuardOutput on the aggregate
//	F2 = FeedbackExploit on the aggregate
//	F3 = F2 plus Propagate=true (the filter below then exploits too)
type FeedbackMode uint8

const (
	// FeedbackIgnore makes the operator feedback-unaware (null response —
	// always correct).
	FeedbackIgnore FeedbackMode = iota
	// FeedbackGuardOutput only suppresses matching result tuples at the
	// output (§4.3 strategy 1).
	FeedbackGuardOutput
	// FeedbackExploit enacts the operator's full characterization: input
	// guards, state purges, and output guards as appropriate (§4.3
	// strategies 1–3).
	FeedbackExploit
)

// String names the mode.
func (m FeedbackMode) String() string {
	switch m {
	case FeedbackIgnore:
		return "ignore"
	case FeedbackGuardOutput:
		return "guard-output"
	case FeedbackExploit:
		return "exploit"
	}
	return "mode(?)"
}

// responseLog accumulates core.Response entries; operators embed it.
type responseLog struct {
	responses []core.Response
}

func (l *responseLog) logResponse(r core.Response) {
	l.responses = append(l.responses, r)
}

// Responses returns the operator's feedback response log.
func (l *responseLog) Responses() []core.Response {
	return append([]core.Response(nil), l.responses...)
}

// coveredByAllOthers reports whether every per-output guard table except
// tables[skip] holds an installed guard whose pattern p implies — the
// unanimity test shared by Duplicate (outputs must stay identical) and
// Split (an unpinned pattern may route anywhere): a consumer-asserted
// pattern becomes exploitable upstream of the fan-out/split only once
// every other consumer has asserted a superset of it.
func coveredByAllOthers(tables []*core.GuardTable, skip int, p punct.Pattern) bool {
	for i, g := range tables {
		if i == skip {
			continue
		}
		covered := false
		for _, gd := range g.Guards() {
			if p.Implies(gd.Pattern) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// RelayPunct decides whether embedded punctuation with the given pattern
// survives an attribute projection, and produces the projected pattern.
// Project, Map, and fused kernels (internal/fuse) all relay by this rule.
//
// Rule (mirror of safe propagation, but for the downstream direction): the
// punctuation's guarantee survives iff every bound attribute is carried by
// the mapping. If a bound conjunct is dropped, the projected pattern would
// overclaim: input punctuation [a=5, ts≤10] does not promise the absence of
// future tuples with a=6, ts≤9, so a projection that drops a cannot emit
// [ts≤10].
func RelayPunct(p punct.Pattern, outputOf func(inAttr int) int, outArity int) (punct.Pattern, bool) {
	mapping := make([]int, outArity) // output attr → input attr
	for i := range mapping {
		mapping[i] = -1
	}
	carried := map[int]bool{}
	for in := 0; in < p.Arity(); in++ {
		if out := outputOf(in); out >= 0 && out < outArity {
			mapping[out] = in
			carried[in] = true
		}
	}
	for _, b := range p.Bound() {
		if !carried[b] {
			return punct.Pattern{}, false
		}
	}
	return p.Project(mapping), true
}
