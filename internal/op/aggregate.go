package op

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/work"
)

// Aggregate is the windowed, grouped aggregate (COUNT/SUM/AVG/MAX/MIN) in
// the WID/OOP style: tuples are assigned to window extents by id, partial
// aggregates accumulate per (window, group), and embedded punctuation on
// the windowing attribute triggers result production and state purge.
//
// Its feedback behaviour implements Table 1 (generalized across aggregate
// kinds by monotonicity — §3.5's COUNT/SUM/MAX discussion):
//
//   - group-bound assumed feedback → purge matching groups, guard input,
//     optionally propagate in input-schema terms;
//   - value-bound upward-closed feedback on monotone-up aggregates →
//     close/purge matching windows and pin them shut;
//   - other value-bound feedback → output guard only;
//   - demanded feedback → emit partial results for the subset immediately;
//   - window-bound feedback (on wstart) → translated to an input-timestamp
//     guard via the window spec (Example 2's "skip windows w3, w4", which a
//     bottom-of-plan filter cannot express).
type Aggregate struct {
	exec.Base
	OpName string
	In     stream.Schema
	Kind   core.AggKind
	// TsAttr is the windowing attribute (KindTime or KindInt domain).
	TsAttr int
	// ValAttr is the aggregated attribute; ignored for COUNT (may be -1).
	ValAttr int
	// GroupBy lists grouping attribute indices (possibly empty).
	GroupBy []int
	// Window is the extent specification.
	Window window.Spec
	// ValueName names the output aggregate attribute (default "value").
	ValueName string
	// Cost is the work burned per tuple folded into state (aggregation
	// expense; the Figure 7 F2 scheme saves it). EmitCost is the work
	// burned per result tuple produced (result production and delivery
	// expense; F1 saves it).
	Cost, EmitCost int
	// NonNegative declares that aggregated input values are known
	// non-negative, which upgrades SUM to a monotone-up aggregate for
	// value-bound feedback (core.AggCharacterizationGiven).
	NonNegative bool
	// Mode/Propagate configure feedback as in Select.
	Mode      FeedbackMode
	Propagate bool
	// MaxChangelog caps the incremental-snapshot changelog (dirty + dead
	// keys). Tracking starts at the first capture and records every
	// mutation thereafter; if checkpointing then stops — coordinator gone,
	// persistent storage failures — the changelog would grow without bound.
	// Crossing the cap collapses it and makes the next capture full (which
	// re-enables tracking). 0 means the scaled default,
	// max(DefaultMaxChangelog, live state size); an explicit positive value
	// is an absolute limit; negative disables the cap.
	MaxChangelog int

	responseLog
	out          stream.Schema
	groupOutIdx  []int // positions of group attrs in output schema
	wstartIdx    int   // position of wstart in output schema
	valueIdx     int   // position of the aggregate value in output schema
	attrMap      core.AttrMap
	state        map[string]*aggGroup //pace:tracked
	guardsOut    *core.GuardTable     // emit-time guards (output patterns)
	guardsPrefix *core.GuardTable     // input-time guards (non-value patterns)
	meter        work.Meter
	// scratch backs probe-only tuples (prefixTuple): guards do not retain
	// what they match against, so the buffer is reused across probes.
	scratch []stream.Value
	// groupScratch backs the per-tuple group-value projection until a new
	// state entry actually needs to own it.
	groupScratch []stream.Value
	// keyScratch backs the per-tuple state-key encoding; the map is probed
	// with string(keyScratch) so the key string is materialized only when
	// a new entry is inserted.
	keyScratch []byte
	// lastKey backs the batch path's consecutive-key cache (ApplyTupleBatch);
	// batchScratch backs ProcessTupleBatch's item unwrapping. Both reused,
	// transient, never checkpointed.
	lastKey      []byte
	batchScratch []stream.Tuple

	// minOpen is a lower bound on the smallest window id holding a state
	// entry, so a punctuation that closes no window skips the state scan
	// (flushThrough). Lowered on group insert, recomputed by every scan that
	// does run, left alone by purges (a bound that is too low costs one
	// scan, never a result); minOpenUnknown after a restore rebuilt state.
	minOpen int64
	// due and run back a flush's sorted work list and its current run of
	// results; reused, transient, never checkpointed.
	due []dueGroup
	run []stream.Tuple

	// Changelog for incremental snapshots (state.go): keys mutated or
	// deleted since the previous capture. nil until the first capture
	// enables tracking, so plans that never checkpoint pay nothing.
	chlogDirty map[string]bool
	chlogDead  map[string]bool

	inTuples, outTuples, folded, inSuppressed, outSuppressed, purged int64
	partialsEmitted                                                  int64

	// Feedback accounting only; the tuple counters above stay plain
	// because state.go serializes them into snapshots (the snapshot runs
	// on the node's own goroutine, so plain fields are race-free there,
	// but /metrics scrapes from another goroutine and may only touch
	// atomics). fb is never snapshotted and resets on restore.
	fb fbCounters
}

type aggGroup struct {
	wid       int64
	groupVals []stream.Value
	count     int64
	sum       float64
	min, max  float64
}

// dueGroup is one state entry picked for emission: its key and window id
// sit beside the pointer so ordering the list touches neither the state map
// nor the groups.
type dueGroup struct {
	wid int64
	key string
	g   *aggGroup
}

const (
	// minOpenUnknown makes every flush scan: no window id is below it.
	minOpenUnknown = math.MinInt64
	// flushSlabTuples bounds the results built in one value slab, and so
	// what one retained result can pin: at most this many results' values.
	flushSlabTuples = 256
)

// Name implements exec.Operator.
func (a *Aggregate) Name() string {
	if a.OpName != "" {
		return a.OpName
	}
	return strings.ToLower(a.Kind.String())
}

// InSchemas implements exec.Operator.
func (a *Aggregate) InSchemas() []stream.Schema { return []stream.Schema{a.In} }

// OutSchemas implements exec.Operator.
func (a *Aggregate) OutSchemas() []stream.Schema {
	if a.out.Arity() == 0 {
		a.mustInit()
	}
	return []stream.Schema{a.out}
}

func (a *Aggregate) mustInit() {
	if err := a.Window.Validate(); err != nil {
		panic(fmt.Sprintf("op: aggregate %q: %v", a.Name(), err))
	}
	name := a.ValueName
	if name == "" {
		name = "value"
	}
	fields := make([]stream.Field, 0, len(a.GroupBy)+2)
	a.groupOutIdx = a.groupOutIdx[:0]
	for i, g := range a.GroupBy {
		fields = append(fields, a.In.Field(g))
		a.groupOutIdx = append(a.groupOutIdx, i)
	}
	a.wstartIdx = len(fields)
	fields = append(fields, stream.F("wstart", a.In.Field(a.TsAttr).Kind))
	a.valueIdx = len(fields)
	fields = append(fields, stream.F(name, stream.KindFloat))
	out, err := stream.NewSchema(fields...)
	if err != nil {
		panic(fmt.Sprintf("op: aggregate %q: %v", a.Name(), err))
	}
	a.out = out
	// Output→input attribute mapping: groups are carried; wstart and the
	// aggregate value are computed.
	toInput := make([]int, out.Arity())
	for i := range toInput {
		toInput[i] = -1
	}
	for i, g := range a.GroupBy {
		toInput[i] = g
	}
	a.attrMap = core.AttrMap{InputArity: a.In.Arity(), ToInput: toInput}
}

// Open implements exec.Operator.
func (a *Aggregate) Open(exec.Context) error {
	if a.out.Arity() == 0 {
		a.mustInit()
	}
	a.state = map[string]*aggGroup{}
	a.minOpen = math.MaxInt64
	a.guardsOut = core.NewGuardTable(a.out.Arity())
	a.guardsPrefix = core.NewGuardTable(a.out.Arity())
	a.chlogDirty, a.chlogDead = nil, nil
	return nil
}

// noteDirty records a state-key mutation in the changelog. The lookup form
// keeps the hot path allocation-free: string(k) only materializes on the
// first mutation of a key per capture interval.
func (a *Aggregate) noteDirty(k []byte) {
	if a.chlogDirty == nil {
		return
	}
	if !a.chlogDirty[string(k)] {
		a.chlogDirty[string(k)] = true
	}
	if len(a.chlogDead) > 0 {
		delete(a.chlogDead, string(k))
	}
	a.capChangelog()
}

// noteDead records a state-key deletion in the changelog.
func (a *Aggregate) noteDead(k string) {
	if a.chlogDirty == nil {
		return
	}
	delete(a.chlogDirty, k)
	a.chlogDead[k] = true
	a.capChangelog()
}

// capChangelog bounds changelog memory when checkpointing has stopped:
// past the cap the changelog is collapsed — tracking turns off, so
// CaptureState answers the next delta request with a full capture, exactly
// as if no capture had ever happened, and re-enables tracking at that cut.
// The default cap scales with the live state: a changelog larger than the
// state itself means a delta has no advantage over a full capture (the
// dead-key-accumulation failure mode), while a fixed constant would
// collapse perfectly healthy intervals on high-cardinality plans.
func (a *Aggregate) capChangelog() {
	limit := a.MaxChangelog
	if limit < 0 {
		return
	}
	if limit == 0 {
		limit = DefaultMaxChangelog
		if n := len(a.state); n > limit {
			limit = n
		}
	}
	if len(a.chlogDirty)+len(a.chlogDead) > limit {
		a.chlogDirty, a.chlogDead = nil, nil
	}
}

func (a *Aggregate) appendStateKey(b []byte, wid int64, t stream.Tuple) []byte {
	b = strconv.AppendInt(b, wid, 10)
	b = append(b, ';')
	return t.AppendKey(b, a.GroupBy)
}

// prefixTuple builds the output-schema tuple for a (window, group) with the
// aggregate value left Null; group-bound and window-bound guards can be
// evaluated against it before any aggregation work is done.
//
// The returned tuple aliases the operator's scratch buffer: it is valid
// only until the next prefixTuple call and must never be emitted or
// retained (guard probes satisfy both).
func (a *Aggregate) prefixTuple(wid int64, groupVals []stream.Value) stream.Tuple {
	if cap(a.scratch) < a.out.Arity() {
		a.scratch = make([]stream.Value, a.out.Arity())
	}
	vals := a.scratch[:a.out.Arity()]
	copy(vals, groupVals)
	vals[a.wstartIdx] = a.wstartValue(wid)
	vals[a.valueIdx] = stream.Null
	return stream.NewTuple(vals...)
}

func (a *Aggregate) wstartValue(wid int64) stream.Value {
	start, _ := a.Window.Extent(wid)
	if a.In.Field(a.TsAttr).Kind == stream.KindTime {
		return stream.TimeMicros(start)
	}
	return stream.Int(start)
}

// errUnexpectedInput keeps the formatting allocation out of the annotated
// hot paths; it is only reached on a miswired plan.
func (a *Aggregate) errUnexpectedInput(input int) error {
	return fmt.Errorf("op: aggregate %q: tuple on unexpected input %d (single-input operator; check plan wiring)", a.Name(), input)
}

// ProcessTuple implements exec.Operator.
//
//pace:hotpath
func (a *Aggregate) ProcessTuple(input int, t stream.Tuple, _ exec.Context) error {
	if input != 0 {
		return a.errUnexpectedInput(input)
	}
	a.inTuples++
	lo, hi := a.Window.WindowsOf(t.At(a.TsAttr).I)
	// The projection lives in a reused scratch buffer; it is copied into an
	// owned slice only when a new state entry must retain it.
	groupVals := a.groupScratch[:0]
	for _, g := range a.GroupBy {
		groupVals = append(groupVals, t.At(g))
	}
	a.groupScratch = groupVals
	for wid := lo; wid <= hi; wid++ {
		if a.Mode == FeedbackExploit && a.guardsPrefix.Suppress(a.prefixTuple(wid, groupVals)) {
			a.inSuppressed++
			continue
		}
		if a.Cost > 0 {
			a.meter.Do(a.Cost)
		}
		a.folded++
		a.keyScratch = a.appendStateKey(a.keyScratch[:0], wid, t)
		g := a.state[string(a.keyScratch)]
		if g == nil {
			owned := append([]stream.Value(nil), groupVals...) //pace:allow-alloc first sighting of a (window, group): the state entry owns its key values
			g = &aggGroup{wid: wid, groupVals: owned, min: math.Inf(1), max: math.Inf(-1)}
			a.state[string(a.keyScratch)] = g
			a.minOpen = min(a.minOpen, wid)
		}
		g.count++
		if a.ValAttr >= 0 {
			v := t.At(a.ValAttr)
			if !v.IsNull() {
				f := v.AsFloat()
				g.sum += f
				if f < g.min {
					g.min = f
				}
				if f > g.max {
					g.max = f
				}
			}
		}
		a.noteDirty(a.keyScratch)
	}
	return nil
}

// ApplyTupleBatch implements exec.TupleBatchApplier: a run of tuples —
// typically the survivors of a fused prefix kernel — folds into state as one
// tight loop. Exactly equivalent to calling ProcessTuple on each tuple in
// order, with the per-batch invariants exploited: the guard probe is hoisted
// (feedback only arrives between batches, so the prefix guard table cannot
// change mid-run), and consecutive tuples hitting the same (window, group)
// key skip the hash probe and coalesce to one changelog dirty note (legal
// because nothing purges state mid-batch and dirty notes are idempotent —
// DESIGN.md §10.6).
//
//pace:hotpath
func (a *Aggregate) ApplyTupleBatch(input int, ts []stream.Tuple, _ exec.Context) error {
	if input != 0 {
		return a.errUnexpectedInput(input)
	}
	a.inTuples += int64(len(ts))
	exploit := a.Mode == FeedbackExploit && a.guardsPrefix.Active() > 0
	var lastG *aggGroup
	lastKey := a.lastKey[:0]
	for i := range ts {
		t := ts[i]
		lo, hi := a.Window.WindowsOf(t.At(a.TsAttr).I)
		groupVals := a.groupScratch[:0]
		for _, g := range a.GroupBy {
			groupVals = append(groupVals, t.At(g))
		}
		a.groupScratch = groupVals
		for wid := lo; wid <= hi; wid++ {
			if exploit && a.guardsPrefix.Suppress(a.prefixTuple(wid, groupVals)) {
				a.inSuppressed++
				continue
			}
			if a.Cost > 0 {
				a.meter.Do(a.Cost)
			}
			a.folded++
			a.keyScratch = a.appendStateKey(a.keyScratch[:0], wid, t)
			g := lastG
			if g == nil || !bytes.Equal(a.keyScratch, lastKey) {
				g = a.state[string(a.keyScratch)]
				if g == nil {
					owned := append([]stream.Value(nil), groupVals...) //pace:allow-alloc first sighting of a (window, group): the state entry owns its key values
					g = &aggGroup{wid: wid, groupVals: owned, min: math.Inf(1), max: math.Inf(-1)}
					a.state[string(a.keyScratch)] = g
					a.minOpen = min(a.minOpen, wid)
				}
				a.noteDirty(a.keyScratch)
				lastG = g
				lastKey = append(lastKey[:0], a.keyScratch...)
			}
			g.count++
			if a.ValAttr >= 0 {
				v := t.At(a.ValAttr)
				if !v.IsNull() {
					f := v.AsFloat()
					g.sum += f
					if f < g.min {
						g.min = f
					}
					if f > g.max {
						g.max = f
					}
				}
			}
		}
	}
	a.lastKey = lastKey
	return nil
}

// ProcessTupleBatch implements exec.TupleBatcher by unwrapping the run into
// a reused scratch buffer and folding it through ApplyTupleBatch, so unfused
// plans take the batched fold too.
func (a *Aggregate) ProcessTupleBatch(input int, items []queue.Item, ctx exec.Context) error {
	buf := a.batchScratch[:0]
	for i := range items {
		buf = append(buf, items[i].Tuple)
	}
	a.batchScratch = buf
	return a.ApplyTupleBatch(input, buf, ctx)
}

func (a *Aggregate) value(g *aggGroup) float64 {
	switch a.Kind {
	case core.AggCount:
		return float64(g.count)
	case core.AggSum:
		return g.sum
	case core.AggAvg:
		if g.count == 0 {
			return 0
		}
		return g.sum / float64(g.count)
	case core.AggMax:
		return g.max
	case core.AggMin:
		return g.min
	}
	return 0
}

// fillResult writes g's result into vals, a slice of the output arity.
func (a *Aggregate) fillResult(vals []stream.Value, g *aggGroup) {
	copy(vals, g.groupVals)
	vals[a.wstartIdx] = a.wstartValue(g.wid)
	vals[a.valueIdx] = stream.Float(a.value(g))
}

// probeResult is g's current result in the scratch buffer prefixTuple uses,
// under the same rule: for matching only, never emitted or retained.
func (a *Aggregate) probeResult(g *aggGroup) stream.Tuple {
	t := a.prefixTuple(g.wid, g.groupVals)
	t.Values[a.valueIdx] = stream.Float(a.value(g))
	return t
}

// ProcessPunct implements exec.Operator: punctuation on the windowing
// attribute closes complete windows, emits their results, purges state, and
// re-punctuates the output on wstart (delimiting it for downstream
// feedback, §4.4).
func (a *Aggregate) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	if input != 0 {
		return fmt.Errorf("op: aggregate %q: punctuation on unexpected input %d (single-input operator; check plan wiring)", a.Name(), input)
	}
	bound := e.Pattern.Bound()
	if len(bound) != 1 || bound[0] != a.TsAttr {
		return nil
	}
	pr := e.Pattern.Pred(a.TsAttr)
	var wm int64
	switch pr.Op {
	case punct.LE:
		wm = pr.Val.I
	case punct.LT:
		wm = pr.Val.I - 1
	default:
		return nil
	}
	lastFull := a.Window.LastFullWindow(wm)
	if lastFull < 0 {
		return nil
	}
	a.flushThrough(lastFull, ctx)
	start, _ := a.Window.Extent(lastFull)
	outPunct := punct.NewEmbedded(punct.OnAttr(a.out.Arity(), a.wstartIdx, punct.Le(a.wstartTsValue(start))))
	a.guardsOut.ObservePunct(outPunct)
	a.guardsPrefix.ObservePunct(outPunct)
	ctx.EmitPunct(outPunct)
	return nil
}

func (a *Aggregate) wstartTsValue(start int64) stream.Value {
	if a.In.Field(a.TsAttr).Kind == stream.KindTime {
		return stream.TimeMicros(start)
	}
	return stream.Int(start)
}

// flushThrough emits and purges every state entry with wid ≤ lastFull, in
// deterministic (wid, key) order. Most punctuation closes no window — the
// minOpen bound answers that without touching state. Otherwise one scan
// gathers the due entries (and recomputes the bound from the rest), one sort
// orders them, and the results are built in value slabs of at most
// flushSlabTuples tuples — one allocation per slab, each result owning its
// slot as slab[:n:n] — and handed downstream a run at a time. A result the
// output guards suppress leaves its slot to the next one.
func (a *Aggregate) flushThrough(lastFull int64, ctx exec.Context) {
	if lastFull < a.minOpen {
		return
	}
	due := a.due[:0]
	minOpen := int64(math.MaxInt64)
	for k, g := range a.state {
		if g.wid <= lastFull {
			due = append(due, dueGroup{wid: g.wid, key: k, g: g})
		} else {
			minOpen = min(minOpen, g.wid)
		}
	}
	a.minOpen = minOpen
	slices.SortFunc(due, func(x, y dueGroup) int {
		if c := cmp.Compare(x.wid, y.wid); c != 0 {
			return c
		}
		return strings.Compare(x.key, y.key)
	})
	be, batched := ctx.(exec.BatchEmitter)
	arity := a.out.Arity()
	for rest := due; len(rest) > 0; {
		n := min(len(rest), flushSlabTuples)
		slab := make([]stream.Value, n*arity)
		run := a.run[:0]
		for _, d := range rest[:n] {
			t := stream.Tuple{Values: slab[:arity:arity]}
			a.fillResult(t.Values, d.g)
			delete(a.state, d.key)
			a.noteDead(d.key)
			if a.Mode != FeedbackIgnore && a.guardsOut.Suppress(t) {
				a.outSuppressed++
				continue
			}
			if a.EmitCost > 0 {
				a.meter.Do(a.EmitCost)
			}
			a.outTuples++
			run = append(run, t)
			slab = slab[arity:]
		}
		if batched {
			be.EmitBatch(run)
		} else {
			for i := range run {
				ctx.Emit(run[i])
			}
		}
		a.run = run
		rest = rest[n:]
	}
	clear(due) // the scratch must not pin the groups it just purged
	a.due = due[:0]
}

// ProcessEOS implements exec.Operator.
func (a *Aggregate) ProcessEOS(input int, ctx exec.Context) error {
	if input != 0 {
		return fmt.Errorf("op: aggregate %q: EOS on unexpected input %d (single-input operator; check plan wiring)", a.Name(), input)
	}
	a.flushThrough(math.MaxInt64, ctx)
	return nil
}

// ProcessFeedback implements exec.Operator per Table 1.
func (a *Aggregate) ProcessFeedback(_ int, f core.Feedback, ctx exec.Context) error {
	a.fb.received.Add(1)
	resp := core.Response{Feedback: f}
	defer func() {
		if len(resp.Actions) == 0 {
			resp.Actions = []core.Action{core.ActNone}
		}
		a.logResponse(resp)
	}()
	switch f.Intent {
	case core.Desired:
		// An aggregate cannot reorder its own production usefully;
		// relay to the antecedent if the pattern survives the mapping.
		if a.Propagate {
			if prop := core.SafePropagation(f.Pattern, a.attrMap); prop.OK {
				relayed := f.Relayed(prop.Pattern)
				ctx.SendFeedback(0, relayed)
				a.fb.forwarded.Add(1)
				resp.Actions = append(resp.Actions, core.ActPropagate)
				resp.Propagated = []*core.Feedback{&relayed}
			}
		}
		return nil
	case core.Demanded:
		// Unblock: emit partial results for matching open windows now
		// (§3.4's financial-speculator example — a partial answer soon
		// beats a full answer too late). State is retained; the final
		// result still appears when the window closes.
		var due []string
		for k, g := range a.state {
			if f.Pattern.Matches(a.probeResult(g)) {
				due = append(due, k)
			}
		}
		slices.Sort(due)
		for _, k := range due {
			a.partialsEmitted++
			vals := make([]stream.Value, a.out.Arity())
			a.fillResult(vals, a.state[k])
			ctx.Emit(stream.Tuple{Values: vals})
		}
		resp.Actions = append(resp.Actions, core.ActUnblock)
		return nil
	}
	// Assumed feedback: classify against the output partition and apply
	// the Table 1 plan, limited by Mode.
	if a.Mode == FeedbackIgnore {
		return nil
	}
	shape := core.ClassifyAggPattern(f.Pattern, a.groupOutIdx, a.valueIdx)
	plan := core.AggCharacterizationGiven(a.Kind, shape, f.Pattern, a.attrMap, a.NonNegative)
	resp.Note = plan.Explanation

	// Output guard is correct for every shape and both modes.
	a.guardsOut.Install(f)
	a.fb.exploited.Add(1)
	resp.Actions = append(resp.Actions, core.ActGuardOutput)
	if a.Mode == FeedbackGuardOutput {
		return nil
	}

	// Install guards before purging: the value-shape input guard is
	// derived from the matching state entries, which the purge removes.
	var wantPurge bool
	for _, act := range plan.Actions {
		switch act {
		case core.ActPurgeState, core.ActCloseWindows:
			if !wantPurge {
				resp.Actions = append(resp.Actions, act)
			}
			wantPurge = true
		case core.ActGuardInput:
			a.installInputGuard(f, shape)
			resp.Actions = append(resp.Actions, core.ActGuardInput)
		}
	}
	if wantPurge {
		a.purgeMatching(f.Pattern, shape)
	}
	if a.Propagate {
		a.propagate(f, plan, &resp, ctx)
	}
	return nil
}

// purgeMatching removes state entries covered by the feedback. For
// group/window-bound shapes the prefix (ignoring the value) decides; for
// value-bound shapes on monotone aggregates the current partial decides
// (it can only move further into the subset).
func (a *Aggregate) purgeMatching(p punct.Pattern, shape core.AggShape) {
	for k, g := range a.state {
		var hit bool
		switch shape {
		case core.AggShapeGroup:
			hit = p.Matches(a.prefixTuple(g.wid, g.groupVals))
		case core.AggShapeValueUp, core.AggShapeValueDown:
			hit = p.Matches(a.probeResult(g))
		default:
			continue
		}
		if hit {
			a.purged++
			delete(a.state, k)
			a.noteDead(k)
		}
	}
}

// installInputGuard pins the suppressed subset shut so arriving tuples
// cannot recreate purged groups (the paper's MAX example: a tuple with
// value 40 would otherwise re-open a window whose true max is ≥50).
func (a *Aggregate) installInputGuard(f core.Feedback, shape core.AggShape) {
	switch shape {
	case core.AggShapeGroup:
		a.guardsPrefix.Install(f)
	case core.AggShapeValueUp, core.AggShapeValueDown:
		// Guard the specific (window, group) pairs that were purged:
		// equality patterns on the prefix.
		for _, g := range a.snapshotMatching(f.Pattern) {
			pat := punct.AllWild(a.out.Arity())
			for i := range a.groupOutIdx {
				pat = pat.With(a.groupOutIdx[i], punct.Eq(g.groupVals[i]))
			}
			pat = pat.With(a.wstartIdx, punct.Eq(a.wstartValue(g.wid)))
			a.guardsPrefix.Install(core.Feedback{Intent: core.Assumed, Pattern: pat, Origin: f.Origin, Seq: f.Seq})
		}
	}
}

// snapshotMatching returns state entries whose current result matches p.
// It must run before purgeMatching removes those entries.
func (a *Aggregate) snapshotMatching(p punct.Pattern) []*aggGroup {
	var out []*aggGroup
	for _, g := range a.state {
		if p.Matches(a.probeResult(g)) {
			out = append(out, g)
		}
	}
	return out
}

// propagate relays feedback upstream: group-bound patterns go through the
// attribute mapping; window-bound patterns are translated to an input
// timestamp bound via the window spec.
func (a *Aggregate) propagate(f core.Feedback, plan core.ResponsePlan, resp *core.Response, ctx exec.Context) {
	if len(plan.Propagate) > 0 && plan.Propagate[0] != nil {
		relayed := f.Relayed(*plan.Propagate[0])
		ctx.SendFeedback(0, relayed)
		a.fb.forwarded.Add(1)
		resp.Actions = append(resp.Actions, core.ActPropagate)
		resp.Propagated = []*core.Feedback{&relayed}
		return
	}
	// Window translation: ¬[…, wstart≤X, …] with everything else group
	// bound or wild → suppress input tuples whose *every* window start is
	// ≤ X, i.e. ts < ceilSlide(X).
	if pat, ok := a.translateWindowBound(f.Pattern); ok {
		relayed := f.Relayed(pat)
		ctx.SendFeedback(0, relayed)
		a.fb.forwarded.Add(1)
		resp.Actions = append(resp.Actions, core.ActPropagate)
		resp.Propagated = []*core.Feedback{&relayed}
	}
}

// translateWindowBound maps an output pattern binding wstart (with ≤, <,
// or a closed range) and otherwise only carried group attributes into an
// input pattern: group predicates map through, and the wstart bound becomes
// a timestamp bound such that a tuple is suppressed only if EVERY window
// containing it is in the suppressed set (required for sliding windows;
// exact for tumbling).
func (a *Aggregate) translateWindowBound(p punct.Pattern) (punct.Pattern, bool) {
	// Everything bound besides wstart must be a carried group attribute.
	for _, b := range p.Bound() {
		if b == a.wstartIdx {
			continue
		}
		if a.attrMap.ToInput[b] < 0 {
			return punct.Pattern{}, false
		}
	}
	pr := p.Pred(a.wstartIdx)
	out := a.attrMap.InputPattern(p.With(a.wstartIdx, punct.Wild))
	switch pr.Op {
	case punct.LE, punct.LT:
		x := pr.Val.I
		if pr.Op == punct.LT {
			x--
		}
		// A tuple's max window start is origin + floor((ts-origin)/slide)*slide;
		// requiring it ≤ x ⟺ ts < origin + (floor((x-origin)/slide)+1)*slide.
		cutoff := a.Window.Origin + (floorDiv(x-a.Window.Origin, a.Window.Slide)+1)*a.Window.Slide
		return out.With(a.TsAttr, punct.Lt(a.wstartTsValue(cutoff))), true
	case punct.Between:
		lo, hi := pr.Val.I, pr.Hi.I
		// Tuples whose windows ALL start within [lo, hi]: min window
		// start ≥ lo (⟺ ts ≥ lo + Range - Slide ... conservatively
		// ts ≥ loAligned) and max window start ≤ hi (as above).
		// For the min start: a tuple at ts has min start
		// origin + (floor((ts-origin-Range)/slide)+1)*slide ≥ lo
		// ⟺ ts ≥ lo + Range - slide + 1 ... we take the conservative
		// inclusive bound loTs = lo + Range - Slide; for tumbling
		// windows this is exactly lo.
		loTs := lo + a.Window.Range - a.Window.Slide
		hiCut := a.Window.Origin + (floorDiv(hi-a.Window.Origin, a.Window.Slide)+1)*a.Window.Slide
		if hiCut-1 < loTs {
			return punct.Pattern{}, false
		}
		return out.With(a.TsAttr, punct.Range(a.wstartTsValue(loTs), a.wstartTsValue(hiCut-1))), true
	case punct.EQ:
		// Single window: same as Between [v, v].
		return a.translateWindowBound(p.With(a.wstartIdx, punct.Range(pr.Val, pr.Val)))
	}
	return punct.Pattern{}, false
}

func floorDiv(x, y int64) int64 {
	q := x / y
	if (x%y != 0) && ((x < 0) != (y < 0)) {
		q--
	}
	return q
}

// Stats reports tuple accounting for the experiments.
func (a *Aggregate) Stats() AggregateStats {
	return AggregateStats{
		In:            a.inTuples,
		Out:           a.outTuples,
		Folded:        a.folded,
		InSuppressed:  a.inSuppressed,
		OutSuppressed: a.outSuppressed,
		Purged:        a.purged,
		Partials:      a.partialsEmitted,
		OpenGroups:    len(a.state),
		WorkUnits:     a.meter.Total(),
	}
}

// TelemetryVars implements telemetry.VarExporter. Only the feedback
// counters are exported: the tuple counters are serialized snapshot state
// and may not be read off the node goroutine (see the field comment).
func (a *Aggregate) TelemetryVars() []telemetry.Var { return a.fb.vars() }

// AggregateStats is the operator's accounting snapshot.
type AggregateStats struct {
	In, Out, Folded             int64
	InSuppressed, OutSuppressed int64
	Purged, Partials            int64
	OpenGroups                  int
	WorkUnits                   int64
}
