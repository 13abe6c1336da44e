package core

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/punct"
)

// This file is the one place a feedback response is enacted. An operator
// says what is correct for it — Characterize, its row of Tables 1–2 — and a
// Responder does the rest: clamps the plan to the operator's Mode, installs
// the guards, calls the operator's state hooks, relays upstream, expires
// everything by punctuation (§4.4), counts, and remembers the last few
// responses. DESIGN.md §3.1 walks through it.

// Mode selects how far an operator goes when it receives feedback. The
// Figure 7 schemes map onto it:
//
//	F0 = ModeIgnore everywhere
//	F1 = ModeGuardOutput on the aggregate
//	F2 = ModeExploit on the aggregate
//	F3 = F2 plus Propagate=true (the filter below then exploits too)
type Mode uint8

const (
	// ModeIgnore makes the operator feedback-unaware: the null response,
	// always correct, and nothing is relayed (§5: unaware operators "ignore
	// feedback and are unable to further propagate it").
	ModeIgnore Mode = iota
	// ModeGuardOutput only suppresses matching result tuples at the output
	// (§4.3 strategy 1), whatever else the characterization allows.
	ModeGuardOutput
	// ModeExploit enacts the operator's full characterization.
	ModeExploit
)

var modeNames = [...]string{ModeIgnore: "ignore", ModeGuardOutput: "guard-output", ModeExploit: "exploit"}

// String names the mode.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "mode(?)"
}

// Clamp limits a characterization to what an operator configured with mode
// and propagate enacts for feedback of the given intent: nothing under
// ModeIgnore; under ModeGuardOutput the output guard alone, and only for
// assumed feedback the full plan would have exploited; the full plan under
// ModeExploit, relaying only when propagate is set and a pattern survives.
func (p ResponsePlan) Clamp(intent Intent, mode Mode, propagate bool) ResponsePlan {
	out := ResponsePlan{Explanation: p.Explanation}
	switch mode {
	case ModeGuardOutput:
		if intent == Assumed && p.exploits() {
			out.Actions = []Action{ActGuardOutput}
		}
	case ModeExploit:
		relay := false
		if propagate {
			for _, pp := range p.Propagate {
				relay = relay || pp != nil
			}
		}
		for _, a := range p.Actions {
			if a == ActNone || a == ActPropagate && !relay {
				continue
			}
			out.Actions = append(out.Actions, a)
		}
		if relay {
			out.Propagate = p.Propagate
		}
	}
	if len(out.Actions) == 0 {
		out.Actions = []Action{ActNone}
	}
	return out
}

// exploits reports whether the plan does anything locally.
func (p ResponsePlan) exploits() bool {
	for _, a := range p.Actions {
		if a != ActNone && a != ActPropagate {
			return true
		}
	}
	return false
}

// Did reports whether the plan includes the given action.
func (p ResponsePlan) Did(a Action) bool { return Response{Actions: p.Actions}.Did(a) }

// Upstream is what a response needs of the runtime: the control channel
// toward each input. Every exec.Context is one.
type Upstream interface {
	SendFeedback(input int, f Feedback)
	NumInputs() int
}

// Characterizer is what a responding operator contributes: its row of
// Tables 1–2 for feedback f arriving on the given output port, as data,
// unclamped. It must not change the operator: the responder enacts.
type Characterizer interface {
	Characterize(output int, f Feedback) ResponsePlan
}

// The state hooks are for operators that hold state a feedback can describe.
// The responder calls them when the clamped plan names their action; they
// touch the operator's own state only — guards, relays, counters and the
// trace are the responder's.

// Purger enacts ActPurgeState/ActCloseWindows: it removes the state entries
// assumed feedback f describes and returns the guards that keep them from
// being rebuilt, each naming the input-side table it belongs in (Pinned);
// the responder installs them when the plan also says ActGuardInput. row is
// the operator's own characterization of f, unclamped.
type Purger interface {
	Purge(f Feedback, row ResponsePlan) []Pin
}

// Pin is one input guard a Purger derived.
type Pin struct {
	Table *GuardTable
	Guard Feedback
}

// Prioritizer enacts ActPrioritize: produce the subset f describes first.
type Prioritizer[C any] interface {
	Prioritize(f Feedback, ctx C)
}

// Unblocker enacts ActUnblock: emit partial results for the subset now.
type Unblocker[C any] interface {
	Unblock(f Feedback, ctx C)
}

// Output names the operator's output stream to Pinned and Observe; an input
// stream is named by its port number.
const Output = -1

// TraceCap is how many responses a Responder remembers.
const TraceCap = 32

// Responder enacts one operator's feedback responses. It owns all the
// operator's feedback state — per output port, a table for each intent it
// holds (assumed always, desired and demanded when asked: Holds), plus the
// input-side tables the operator asks for (Pinned) — and the operator's data
// path probes them directly. C is the context the operator's callbacks run
// under, handed through to its hooks.
//
// Like the operator it belongs to, a Responder is single-goroutine; only its
// counters may be read from elsewhere.
//
// Checkpointing: guards are exploitation-only. A guard lost on restore means
// suppressing less, never a wrong result (Definition 1: the null response is
// correct), which is why an operator whose only state is its responder stays
// //pace:stateless; an operator that is a snapshot.Stater for other reasons
// declares its tables (snapshot.Guards) and relayed set (snapshot.Relayed,
// which Relayed and RestoreRelayed serve) among the fields it keeps.
type Responder[C Upstream] struct {
	op        Characterizer
	mode      Mode
	propagate bool

	// held[intent] has one table per output port, holding the feedback of
	// that intent the port's consumer asserted; nil for an intent the
	// operator does not hold.
	held   [numIntents][]*GuardTable
	pinned []pinned // input-side tables (Pinned)
	// relayed is what a fan-out operator already sent upstream: its consumers
	// assert the same pattern one after the other and it travels once. The
	// pattern is kept with its key so the entry can expire.
	relayed map[string]punct.Pattern

	received, exploited, forwarded atomic.Int64

	trace  [TraceCap]Response
	traced int
}

type pinned struct {
	stream int
	table  *GuardTable
}

// Bind readies the responder for op, configured with the operator's Mode
// and Propagate, with one empty assumed table for each of its output ports,
// which carry streams of the given arity. Operators call it from Open.
func (r *Responder[C]) Bind(op Characterizer, mode Mode, propagate bool, outputs, arity int) {
	r.op, r.mode, r.propagate = op, mode, propagate
	r.held = [numIntents][]*GuardTable{Assumed: newTables(outputs, arity)}
	r.pinned, r.relayed, r.traced = nil, nil, 0
}

func newTables(n, arity int) []*GuardTable {
	ts := make([]*GuardTable, n)
	for i := range ts {
		ts[i] = NewGuardTable(arity)
	}
	return ts
}

// OutTables returns the assumed tables of the output ports, by port: the
// output guards.
func (r *Responder[C]) OutTables() []*GuardTable { return r.held[Assumed] }

// Holds makes the responder keep feedback of the given intent per output
// port, the way it keeps assumed feedback, and returns those tables: the
// desired and demanded patterns PRIORITIZE promotes, the demanded ones
// SPLIT relays once every partition asserts them. What the clamped plan
// exploits lands in them; punctuation expires them (Observe).
func (r *Responder[C]) Holds(intent Intent) []*GuardTable {
	if r.held[intent] == nil {
		r.held[intent] = newTables(len(r.held[Assumed]), r.held[Assumed][0].arity)
	}
	return r.held[intent]
}

// Pinned adds an input-side table: guards a Purger returns land in it, and
// punctuation observed on the named stream (an input port, or Output for a
// table whose patterns are over the output schema) expires it.
func (r *Responder[C]) Pinned(stream, arity int) *GuardTable {
	t := NewGuardTable(arity)
	r.pinned = append(r.pinned, pinned{stream, t})
	return t
}

// Tables returns every table the responder owns: the held ones, by intent
// and port, then the pinned ones.
//
//pace:allow-unreached the §4.4 expiry checks read every table; ROADMAP item 4's guard-table gauges are its caller
func (r *Responder[C]) Tables() []*GuardTable {
	ts := slices.Concat(r.held[:]...)
	for _, p := range r.pinned {
		ts = append(ts, p.table)
	}
	return ts
}

// CoveredByOthers reports whether every output port other than the given one
// already holds feedback of f's intent covering f's pattern — the unanimity
// test of an operator whose consumers must agree before it acts for all of
// them (Duplicate: outputs stay identical; Split: an unpinned pattern may
// route anywhere). An intent the operator does not hold is never covered.
func (r *Responder[C]) CoveredByOthers(output int, f Feedback) bool {
	tables := r.held[f.Intent]
	for i, t := range tables {
		if i != output && !t.covers(f.Pattern) {
			return false
		}
	}
	return tables != nil
}

// Respond enacts the operator's response to feedback f from the consumer of
// the given output port.
func (r *Responder[C]) Respond(output int, f Feedback, ctx C) error {
	if output < 0 || output >= len(r.held[Assumed]) {
		return fmt.Errorf("core: feedback on output %d of an operator with %d outputs (check plan wiring)", output, len(r.held[Assumed]))
	}
	r.received.Add(1)
	row := r.op.Characterize(output, f)
	plan := row.Clamp(f.Intent, r.mode, r.propagate)
	resp := Response{Feedback: f, Note: plan.Explanation}

	if plan.exploits() {
		r.exploited.Add(1)
		// What a consumer asserts is held against its port, in the table of
		// its intent: the output guard, the subset to promote, and what
		// unanimity, expiry and recovery read.
		if tables := r.held[f.Intent]; tables != nil {
			tables[output].Install(f)
		}
	}
	if p, ok := r.op.(Purger); ok && (plan.Did(ActPurgeState) || plan.Did(ActCloseWindows)) {
		if pins := p.Purge(f, row); plan.Did(ActGuardInput) {
			for _, pin := range pins {
				pin.Table.Install(pin.Guard)
			}
		}
	}
	if p, ok := r.op.(Prioritizer[C]); ok && plan.Did(ActPrioritize) {
		p.Prioritize(f, ctx)
	}
	if u, ok := r.op.(Unblocker[C]); ok && plan.Did(ActUnblock) {
		u.Unblock(f, ctx)
	}

	sent := r.relay(f, plan, &resp, ctx)
	for _, a := range plan.Actions {
		if a != ActPropagate || sent {
			resp.Actions = append(resp.Actions, a)
		}
	}
	if len(resp.Actions) == 0 {
		resp.Actions = []Action{ActNone}
	}
	r.trace[r.traced%TraceCap] = resp
	r.traced++
	return nil
}

// relay sends the plan's propagations upstream and reports whether any went.
func (r *Responder[C]) relay(f Feedback, plan ResponsePlan, resp *Response, ctx C) bool {
	if !plan.Did(ActPropagate) {
		return false
	}
	if len(r.held[Assumed]) > 1 {
		key := relayKey(f)
		if _, dup := r.relayed[key]; dup {
			return false
		}
		if r.relayed == nil {
			r.relayed = map[string]punct.Pattern{}
		}
		r.relayed[key] = f.Pattern
	}
	sent := false
	for i, pp := range plan.Propagate {
		if pp == nil || i >= ctx.NumInputs() {
			continue
		}
		if resp.Propagated == nil {
			resp.Propagated = make([]*Feedback, len(plan.Propagate))
		}
		relayed := f.Relayed(*pp)
		ctx.SendFeedback(i, relayed)
		r.forwarded.Add(1)
		resp.Propagated[i] = &relayed
		sent = true
	}
	return sent
}

func relayKey(f Feedback) string { return f.Intent.Sigil() + f.Pattern.String() }

// Observe folds punctuation into every table of the stream it belongs to —
// Output for punctuation over the output schema: the held tables of every
// intent; an input port otherwise — releasing the entries it covers (§4.4),
// the one expiry rule for all feedback state. Output punctuation also
// expires the relayed set: an entry goes once no held table covers it.
func (r *Responder[C]) Observe(stream int, e punct.Embedded) {
	for _, p := range r.pinned {
		if p.stream == stream {
			p.table.ObservePunct(e)
		}
	}
	if stream != Output {
		return
	}
	for _, byPort := range r.held {
		for _, t := range byPort {
			t.ObservePunct(e)
		}
	}
	for key, p := range r.relayed {
		if !r.covered(p) {
			delete(r.relayed, key)
		}
	}
}

// covered reports whether any held table still holds feedback covering p.
func (r *Responder[C]) covered(p punct.Pattern) bool {
	return slices.ContainsFunc(slices.Concat(r.held[:]...), func(t *GuardTable) bool { return t.covers(p) })
}

// Relayed returns the keys of the relayed set, sorted: what a fan-out
// operator's capture records beside its tables.
func (r *Responder[C]) Relayed() []string {
	return slices.Sorted(maps.Keys(r.relayed))
}

// RestoreRelayed rebuilds the relayed set from captured keys, after the
// tables have been restored: a key names the feedback that was relayed, so
// it is kept when a restored table holds that feedback and dropped as stale
// otherwise (the relay can then repeat, which is harmless: the receiver's
// table already covers it).
func (r *Responder[C]) RestoreRelayed(keys []string) {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	r.relayed = map[string]punct.Pattern{}
	for _, t := range slices.Concat(r.held[:]...) {
		for _, g := range t.guards {
			if k := relayKey(g.Source); want[k] {
				r.relayed[k] = g.Pattern
			}
		}
	}
}

// Received, Exploited and Forwarded are the operator's feedback counters:
// messages delivered to it, messages it acted on locally (a guard installed,
// state purged, production reordered or unblocked), and messages it relayed
// upstream. They are safe to read while the plan runs.
func (r *Responder[C]) Received() int64  { return r.received.Load() }
func (r *Responder[C]) Exploited() int64 { return r.exploited.Load() }
func (r *Responder[C]) Forwarded() int64 { return r.forwarded.Load() }

// Trace returns the most recent responses, oldest first, at most TraceCap.
func (r *Responder[C]) Trace() []Response {
	n := min(r.traced, TraceCap)
	out := make([]Response, 0, n)
	for i := r.traced - n; i < r.traced; i++ {
		out = append(out, r.trace[i%TraceCap])
	}
	return out
}
