// Package op implements the query operators of the reproduction: the
// standard relational stream operators (SELECT, MAP and PROJECT, the MAP
// that only carries, DUPLICATE, UNION, windowed aggregates, symmetric-hash
// JOIN) plus the paper's specialized operators (PACE, IMPUTE,
// THRIFTY/IMPATIENT JOIN variants, PRIORITIZE).
//
// Every operator runs under the exec runtime and, where the paper
// characterizes it, plays the producer / exploiter / relayer feedback roles:
// it embeds exec.Responding and declares its row of Tables 1 and 2
// (Characterize, built from the characterizations in package core), and its
// core.Responder enacts the row. Tests and `cmd/experiments tables` verify
// the enacted behaviour against the tables.
//
// The runtime owns the boundary around an operator: it hands it only the
// input and output ports the plan wired (exec.Graph.Add checks them), and it
// folds every punctuation the operator emits into the responder, releasing
// the guards that punctuation covers (§4.4). So no operator re-checks a port
// index or expires its own output guards; Join observes only what reaches
// its input-side tables.
//
// An operator that maps attributes one to one (Map, and Impute, which
// rewrites one) declares the correspondence once, as a core.AttrMap:
// feedback goes up it by core.SafePropagation and embedded punctuation comes
// down it by AttrMap.OutputPattern.
package op

import "repro/internal/core"

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
