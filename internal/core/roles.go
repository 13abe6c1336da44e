package core

// The paper assigns operators three (non-exclusive) roles with respect to
// feedback (§1): producers discover processing opportunities and issue
// feedback; exploiters act on received feedback within their own logic;
// relayers map feedback through their schema transformation and pass it
// upstream. An operator may play all three. A producer sends feedback through
// its runtime context; exploiting and relaying are what a Responder enacts
// from the operator's characterization (responder.go).

// Action enumerates the response vocabulary of §4.3, used by operator
// characterizations (Tables 1 and 2) and by the responses a Responder traces.
type Action uint8

const (
	// ActNone is the null response (always correct for assumed feedback).
	ActNone Action = iota
	// ActGuardOutput installs an output guard: matching result tuples are
	// not emitted.
	ActGuardOutput
	// ActGuardInput installs an input guard: matching input tuples are
	// not processed.
	ActGuardInput
	// ActPurgeState removes matching entries from operator state
	// (hash-table groups, join state, pending queues).
	ActPurgeState
	// ActPropagate relays (a projection of) the feedback upstream.
	ActPropagate
	// ActPrioritize reorders processing in favour of the subset
	// (desired feedback).
	ActPrioritize
	// ActUnblock emits partial results for the subset immediately
	// (demanded feedback).
	ActUnblock
	// ActCloseWindows finalizes open windows whose partial aggregate
	// already satisfies the feedback predicate (MAX example in §3.5).
	ActCloseWindows
)

var actionNames = [...]string{
	ActNone:         "none",
	ActGuardOutput:  "guard-output",
	ActGuardInput:   "guard-input",
	ActPurgeState:   "purge-state",
	ActPropagate:    "propagate",
	ActPrioritize:   "prioritize",
	ActUnblock:      "unblock",
	ActCloseWindows: "close-windows",
}

// String names the action.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "action(?)"
}

// Response records what an operator did with one feedback punctuation; a
// Responder keeps the last TraceCap of them (Trace).
type Response struct {
	Feedback Feedback
	Actions  []Action
	// Propagated holds the feedback actually relayed per input port
	// (empty slot = not propagated to that input).
	Propagated []*Feedback
	// Note carries a human-readable explanation (e.g. refusal reasons).
	Note string
}

// Did reports whether the response includes the given action.
func (r Response) Did(a Action) bool {
	for _, x := range r.Actions {
		if x == a {
			return true
		}
	}
	return false
}
