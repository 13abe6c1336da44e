package core

import (
	"fmt"

	"repro/internal/punct"
	"repro/internal/stream"
)

// Intent is the purpose a feedback punctuation carries (§3.2, §3.4). Unlike
// embedded punctuation, which only reports stream progress, feedback
// punctuation tells the receiver what the issuer wants done about the
// described subset.
type Intent uint8

const (
	// Assumed (¬) communicates a set of tuples to be avoided: the issuer
	// will proceed as if the subset will never be seen. A hint, not a
	// command; the null response is correct (Def. 1).
	Assumed Intent = iota
	// Desired (?) asks that production of the subset be prioritized. It
	// never changes the result set, only production time and order.
	Desired
	// Demanded (!) is the intersection of assumed and desired: "I need
	// this subset now", accepting partial/approximate results (e.g.
	// unblocking an aggregate early).
	Demanded

	numIntents
)

var intentSigils = [...]string{Assumed: "¬", Desired: "?", Demanded: "!"}
var intentNames = [...]string{Assumed: "assumed", Desired: "desired", Demanded: "demanded"}

// Sigil returns the paper's prefix notation for the intent.
func (i Intent) Sigil() string {
	if int(i) < len(intentSigils) {
		return intentSigils[i]
	}
	return "¿"
}

// String returns the intent name used in prose ("assumed", ...).
func (i Intent) String() string {
	if int(i) < len(intentNames) {
		return intentNames[i]
	}
	return fmt.Sprintf("intent(%d)", uint8(i))
}

// Feedback is one feedback punctuation. It is not part of the stream: it
// travels on the control channel, against the data direction, with priority
// over pending tuples (§5, "Inter-Operator Communication").
type Feedback struct {
	Intent  Intent
	Pattern punct.Pattern
	// Origin names the operator that first issued the feedback; hops
	// counts relays. Both are diagnostics — semantics never depend on
	// them.
	Origin string
	Hops   int
	// Seq is assigned by the issuing operator, increasing per origin.
	// Receivers may use it to discard stale feedback from the same origin.
	Seq int64
}

// NewAssumed builds assumed feedback over the pattern.
func NewAssumed(p punct.Pattern) Feedback { return Feedback{Intent: Assumed, Pattern: p} }

// NewDesired builds desired feedback over the pattern.
func NewDesired(p punct.Pattern) Feedback { return Feedback{Intent: Desired, Pattern: p} }

// NewDemanded builds demanded feedback over the pattern.
func NewDemanded(p punct.Pattern) Feedback { return Feedback{Intent: Demanded, Pattern: p} }

// Relayed returns a copy of f carrying a projected pattern, with the hop
// count advanced. Origin and Seq are preserved so duplicate suppression
// keyed on (Origin, Seq) still works across relays.
func (f Feedback) Relayed(p punct.Pattern) Feedback {
	f.Pattern = p
	f.Hops++
	return f
}

// Matches reports whether the tuple is in the feedback's subset of interest.
func (f Feedback) Matches(t stream.Tuple) bool { return f.Pattern.Matches(t) }

// String renders the feedback in the paper's notation, e.g. ¬[*, >=50].
func (f Feedback) String() string { return f.Intent.Sigil() + f.Pattern.String() }
