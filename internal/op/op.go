// Package op implements the query operators of the reproduction: the
// standard relational stream operators (SELECT, PROJECT, DUPLICATE, UNION,
// windowed aggregates, symmetric-hash JOIN) plus the paper's specialized
// operators (PACE, IMPUTE, THRIFTY/IMPATIENT JOIN variants, PRIORITIZE).
//
// Every operator runs under the exec runtime and, where the paper
// characterizes it, plays the producer / exploiter / relayer feedback roles:
// it embeds exec.Responding and declares its row of Tables 1 and 2
// (Characterize, built from the characterizations in package core), and its
// core.Responder enacts the row. Tests and `cmd/experiments tables` verify
// the enacted behaviour against the tables.
package op

import (
	"repro/internal/core"
	"repro/internal/punct"
)

// FeedbackMode selects how far an exploiting operator goes when it receives
// feedback (core.Mode, where the clamp it names is enacted).
type FeedbackMode = core.Mode

const (
	// FeedbackIgnore makes the operator feedback-unaware (null response —
	// always correct).
	FeedbackIgnore = core.ModeIgnore
	// FeedbackGuardOutput only suppresses matching result tuples at the
	// output (§4.3 strategy 1).
	FeedbackGuardOutput = core.ModeGuardOutput
	// FeedbackExploit enacts the operator's full characterization: input
	// guards, state purges, and output guards as appropriate (§4.3
	// strategies 1–3).
	FeedbackExploit = core.ModeExploit
)

// guardBoth is what a stateless 1-in/1-out operator does with assumed
// feedback: it drops a matching tuple before doing any work on it, so input
// guard and output guard are one probe of one table.
var guardBoth = []core.Action{core.ActGuardInput, core.ActGuardOutput}

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
