package core

import (
	"slices"

	"repro/internal/punct"
	"repro/internal/stream"
)

// Guard is one active suppression predicate installed in response to
// assumed feedback. Guards are the paper's strategies (1) and (2) in §4.3:
// an output guard avoids emitting matching tuples; an input guard avoids
// computing on matching tuples.
type Guard struct {
	Pattern punct.Pattern
	// Source identifies the feedback that installed the guard.
	Source Feedback

	// expr is the evaluation form used on the probe path; it is built once
	// at Install so Suppress runs allocation-free.
	expr *punct.Expr
}

// GuardTable holds the active guards of one operator port and implements
// the expiration policy of §4.4: feedback state must not accumulate, so a
// guard is released as soon as embedded punctuation covers its pattern
// (the stream has promised the subset will never appear again, making the
// guard moot).
//
// GuardTable is not safe for concurrent use; each operator owns its tables
// and is single-goroutine by construction.
type GuardTable struct {
	guards []Guard
	arity  int
	scheme *punct.Scheme
}

// NewGuardTable creates an empty table for streams of the given arity.
func NewGuardTable(arity int) *GuardTable {
	return &GuardTable{arity: arity, scheme: punct.NewScheme(arity)}
}

// Arity returns the arity of the streams the table guards.
func (g *GuardTable) Arity() int { return g.arity }

// Restore replaces the table's content with a captured guard list. The
// expiration tracker restarts empty: a guard whose subset the stream already
// promised complete expires again at the next covering punctuation, and until
// then can only suppress tuples the stream will never produce. So does a
// guard installed on an empty table after its exact-value subset closed: an
// empty table's tracker keeps only its frontier.
func (g *GuardTable) Restore(fs []Feedback) {
	g.guards, g.scheme = nil, punct.NewScheme(g.arity)
	for _, f := range fs {
		g.Install(f)
	}
}

// Install adds a guard for the feedback's pattern. Guards subsumed by the
// new pattern are dropped; if an existing guard already subsumes the new
// one, the table is unchanged. A pattern of another arity than the table's
// (a hostile or miswired remote feedback) describes no tuple of this port
// and is refused. Returns whether the table changed.
func (g *GuardTable) Install(f Feedback) bool {
	p := f.Pattern
	if p.Arity() != g.arity || g.covers(p) {
		return false
	}
	g.guards = slices.DeleteFunc(g.guards, func(old Guard) bool { return old.Pattern.Implies(p) })
	g.guards = append(g.guards, Guard{Pattern: p, Source: f, expr: p.Compile(stream.Schema{})})
	return true
}

// Suppress reports whether the tuple matches any active guard (and should
// be dropped by the caller). The probe runs against the guards' compiled
// patterns without copying or allocating.
//
//pace:hotpath
func (g *GuardTable) Suppress(t stream.Tuple) bool {
	// Empty-table fast path, kept trivial so the call inlines: with no
	// feedback installed the hot path pays one length check, no call.
	if len(g.guards) == 0 {
		return false
	}
	return g.suppressScan(t)
}

// Drop removes the tuples of run the table suppresses, compacting the
// survivors in place, and returns them. An empty table returns run as is.
//
//pace:hotpath
func (g *GuardTable) Drop(run []stream.Tuple) []stream.Tuple {
	if len(g.guards) == 0 {
		return run
	}
	kept := run[:0]
	for _, t := range run {
		if !g.suppressScan(t) {
			kept = append(kept, t)
		}
	}
	return kept
}

//pace:hotpath
func (g *GuardTable) suppressScan(t stream.Tuple) bool {
	for i := range g.guards {
		if g.guards[i].expr.Matches(t) {
			return true
		}
	}
	return false
}

// ObservePunct folds embedded punctuation into the expiration tracker and
// releases any guard whose pattern is now covered: the stream itself
// guarantees those tuples are gone, so the guard holds no information. A
// table left with no guard has nothing to expire, so its tracker forgets
// the patterns it recorded and keeps only its frontier (§4.4: feedback
// state does not accumulate, not even in the tracker).
func (g *GuardTable) ObservePunct(e punct.Embedded) {
	g.scheme.Observe(e)
	g.guards = slices.DeleteFunc(g.guards, func(gd Guard) bool { return g.scheme.CoversPattern(gd.Pattern) })
	if len(g.guards) == 0 {
		g.scheme.Forget()
	}
}

// covers reports whether an installed guard's pattern is implied by p: the
// table already holds feedback describing all of p.
func (g *GuardTable) covers(p punct.Pattern) bool {
	for i := range g.guards {
		if p.Implies(g.guards[i].Pattern) {
			return true
		}
	}
	return false
}

// Active returns the number of live guards.
func (g *GuardTable) Active() int { return len(g.guards) }

// Guards returns a copy of the live guards (diagnostics).
func (g *GuardTable) Guards() []Guard { return append([]Guard(nil), g.guards...) }
