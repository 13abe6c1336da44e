package op

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
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
	exec.Responding
	snapshot.State
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
	// Mode/Propagate configure feedback as in Select.
	Mode      FeedbackMode
	Propagate bool

	out         stream.Schema
	groupOutIdx []int // positions of group attrs in output schema
	wstartIdx   int   // position of wstart in output schema
	valueIdx    int   // position of the aggregate value in output schema
	attrMap     core.AttrMap
	// store holds the (window, group) accumulators; it is the only code that
	// mutates them (aggstore.go).
	store        aggStore
	guardsOut    *core.GuardTable // emit-time guards (output patterns)
	guardsPrefix *core.GuardTable // input-time guards (non-value patterns)
	meter        work.Meter
	// scratch backs probe-only tuples (prefixTuple): guards do not retain
	// what they match against, so the buffer is reused across probes.
	scratch []stream.Value
	// batchScratch backs ProcessTupleBatch's item unwrapping, one makes
	// ProcessTuple's tuple a run of one, and run backs the current run of
	// results out of emitWindow. All reused, transient, never checkpointed.
	batchScratch []stream.Tuple
	one          [1]stream.Tuple
	run          []stream.Tuple
	// assigned caches the fold's last window assignment: the ids the
	// windowing values in [from, to] fall in (window.Spec.Assign). Derived
	// from Window alone, so it is reset in Open and never checkpointed.
	assigned struct{ lo, hi, from, to int64 }

	inTuples, outTuples, folded, inSuppressed, outSuppressed, purged int64
	partialsEmitted                                                  int64
}

// flushSlabTuples bounds the results built in one value slab, and so what
// one page still in flight can keep from being recycled.
const flushSlabTuples = 256

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
	a.store.reset(len(a.GroupBy))
	a.assigned.from, a.assigned.to = 1, 0 // empty: the first fold assigns
	a.Bind(a, a.Mode, a.Propagate, 1, a.out.Arity())
	a.guardsOut = a.OutTables()[0]
	// Input guards are patterns over result prefixes (group…, wstart), so the
	// punctuation the aggregate emits is what expires them.
	a.guardsPrefix = a.Pinned(core.Output, a.out.Arity())
	a.keepState()
	return nil
}

// prefixTuple builds the output-schema tuple for a (window, the group at
// row's columns cols) with the aggregate value left Null; group-bound and
// window-bound guards can be evaluated against it before any aggregation
// work is done. The fold passes an input tuple and GroupBy, a handler of
// stored groups a window's key and the store's identity columns.
//
// The returned tuple aliases the operator's scratch buffer: it is valid
// only until the next prefixTuple call and must never be emitted or
// retained (guard probes satisfy both).
func (a *Aggregate) prefixTuple(wid int64, row []stream.Value, cols []int) stream.Tuple {
	if cap(a.scratch) < a.out.Arity() {
		a.scratch = make([]stream.Value, a.out.Arity())
	}
	vals := a.scratch[:a.out.Arity()]
	for i, c := range cols {
		vals[i] = row[c]
	}
	vals[a.wstartIdx] = a.wstartValue(wid)
	vals[a.valueIdx] = stream.Null
	return stream.NewTuple(vals...)
}

func (a *Aggregate) wstartValue(wid int64) stream.Value {
	start, _ := a.Window.Extent(wid)
	return a.wstartTsValue(start)
}

// ProcessTuple implements exec.Operator: a run of one through the fold loop.
//
//pace:hotpath
func (a *Aggregate) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	a.one[0] = t
	return a.ApplyTupleBatch(input, a.one[:], ctx)
}

// ApplyTupleBatch implements exec.TupleBatchApplier, and is the operator's
// one fold loop: a run of tuples — typically the survivors of a fused prefix
// kernel — folds into state. The per-run invariant is exploited: feedback
// only arrives between runs, so the prefix guard table cannot change mid-run
// and its Active check is hoisted. A tuple's windows are the cached
// assignment while its windowing value stays inside the cached interval, so
// the loop divides only when a value leaves it. The group values are hashed
// and matched where they lie in the tuple, once per tuple, and no key is
// encoded or copied; the store finds or inserts the accumulator, copying the
// key only for a group it has not held (DESIGN.md §10.5, §10.6).
//
//pace:hotpath
func (a *Aggregate) ApplyTupleBatch(_ int, ts []stream.Tuple, _ exec.Context) error {
	a.inTuples += int64(len(ts))
	exploit := a.guardsPrefix.Active() > 0
	for i := range ts {
		vals := ts[i].Values
		w := &a.assigned
		if v := vals[a.TsAttr].I; v < w.from || v > w.to {
			w.lo, w.hi, w.from, w.to = a.Window.Assign(v)
		}
		lo, hi := w.lo, w.hi
		h := hashKey(vals, a.GroupBy)
		for wid := lo; wid <= hi; wid++ {
			if exploit && a.guardsPrefix.Suppress(a.prefixTuple(wid, vals, a.GroupBy)) {
				a.inSuppressed++
				continue
			}
			if a.Cost > 0 {
				a.meter.Do(a.Cost)
			}
			a.folded++
			g := a.store.upsert(wid, h, vals, a.GroupBy)
			g.count++
			if a.ValAttr >= 0 {
				v := &vals[a.ValAttr]
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

// probePrefix and probeResult are a group's prefix tuple and its current
// result in the scratch buffer prefixTuple uses, under the same rule: for
// matching only, never emitted or retained.
func (a *Aggregate) probePrefix(w *aggWindow, slot int32) stream.Tuple {
	return a.prefixTuple(w.wid, w.key(slot), a.store.cols)
}

func (a *Aggregate) probeResult(w *aggWindow, slot int32) stream.Tuple {
	t := a.probePrefix(w, slot)
	t.Values[a.valueIdx] = stream.Float(a.value(&w.groups[slot]))
	return t
}

// ProcessPunct implements exec.Operator: punctuation on the windowing
// attribute closes complete windows, emits their results, purges state, and
// re-punctuates the output on wstart (delimiting it for downstream
// feedback, §4.4).
func (a *Aggregate) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	attr, wm, ok := e.Pattern.Progress()
	if !ok || attr != a.TsAttr {
		return nil
	}
	lastFull := a.Window.LastFullWindow(wm)
	if lastFull < 0 {
		return nil
	}
	a.flushThrough(lastFull, ctx)
	start, _ := a.Window.Extent(lastFull)
	outPunct := punct.NewEmbedded(punct.OnAttr(a.out.Arity(), a.wstartIdx, punct.Le(a.wstartTsValue(start))))
	ctx.EmitPunct(outPunct)
	return nil
}

// wstartTsValue is start as a value of the windowing attribute's kind.
func (a *Aggregate) wstartTsValue(start int64) stream.Value {
	return stream.Ordinal(a.In.Field(a.TsAttr).Kind, start)
}

// flushThrough emits and closes every open window with wid ≤ lastFull,
// windows in wid order. The open windows are held in that order, so most
// punctuation — which closes no window — is answered by looking at the first.
// A due window is emitted (emitWindow) and dropped whole.
func (a *Aggregate) flushThrough(lastFull int64, ctx exec.Context) {
	for w := a.store.first(); w != nil && w.wid <= lastFull; w = a.store.first() {
		a.emitWindow(w, nil, ctx)
		a.store.closeFirst()
	}
}

// emitWindow emits one window's results in slot order — the order its groups'
// first tuples arrived in, tombstones skipped; no key is encoded and nothing
// is sorted (DESIGN.md §10.6). With partial nil these are the window's final
// results: one the output guards suppress is dropped, the rest are charged
// EmitCost. With a pattern they are the partial results a Demanded feedback
// asks for: the groups whose current result it matches. Results are built in
// value slabs of at most flushSlabTuples tuples — exec.Slab: recycled memory
// the output pages own, each result taking its slot as slab[:arity:arity] —
// and every slab's run is handed downstream before the next slab is drawn; a
// result that is dropped leaves its slot to the next.
//
//pace:hotpath
func (a *Aggregate) emitWindow(w *aggWindow, partial *punct.Pattern, ctx exec.Context) {
	arity := a.out.Arity()
	wstart := a.wstartValue(w.wid)
	left := w.live() // live groups not yet visited: each takes at most one slot
	var slab []stream.Value
	run := a.run[:0]
	for slot := range w.groups {
		g := &w.groups[slot]
		if g.dead {
			continue
		}
		if len(slab) == 0 {
			ctx.EmitBatch(run)
			run = run[:0]
			slab = exec.Slab(ctx, min(left, flushSlabTuples)*arity)
		}
		left--
		t := stream.Tuple{Values: slab[:arity:arity]}
		copy(t.Values, w.key(int32(slot)))
		t.Values[a.wstartIdx] = wstart
		t.Values[a.valueIdx] = stream.Float(a.value(g))
		if partial != nil {
			if !partial.Matches(t) {
				continue
			}
			a.partialsEmitted++
		} else {
			if a.guardsOut.Suppress(t) {
				a.outSuppressed++
				continue
			}
			if a.EmitCost > 0 {
				a.meter.Do(a.EmitCost)
			}
			a.outTuples++
		}
		run = append(run, t)
		slab = slab[arity:]
	}
	ctx.EmitBatch(run)
	a.run = run
}

// ProcessEOS implements exec.Operator.
func (a *Aggregate) ProcessEOS(_ int, ctx exec.Context) error {
	a.flushThrough(math.MaxInt64, ctx)
	return nil
}

// Characterize implements core.Characterizer per Table 1. Desired feedback an
// aggregate cannot act on itself — it relays it where the pattern survives
// the mapping — and demanded feedback unblocks. A window-bound assumed
// pattern has no safe propagation through the attribute mapping (wstart is
// computed) but translates into an input timestamp bound via the window spec.
func (a *Aggregate) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	if a.out.Arity() == 0 {
		a.mustInit()
	}
	switch f.Intent {
	case core.Desired:
		return core.Stateless(f, nil, a.attrMap)
	case core.Demanded:
		return core.ResponsePlan{Actions: []core.Action{core.ActUnblock}, Propagate: []*punct.Pattern{nil}}
	}
	shape := core.ClassifyAggPattern(f.Pattern, a.groupOutIdx, a.valueIdx)
	plan := core.AggCharacterization(a.Kind, shape, f.Pattern, a.attrMap)
	if plan.Propagate[0] == nil {
		if pat, ok := a.translateWindowBound(f.Pattern); ok {
			plan.Propagate[0] = &pat
			plan.Actions = append(plan.Actions, core.ActPropagate)
		}
	}
	return plan
}

// Unblock implements core.Unblocker: emit partial results for matching open
// windows now (§3.4's financial-speculator example — a partial answer soon
// beats a full answer too late). State is retained; the final result still
// appears when the window closes. Partials leave as the flush's results do:
// windows in wid order, each in slot order.
func (a *Aggregate) Unblock(f core.Feedback, ctx exec.Context) {
	for _, w := range a.store.wins {
		a.emitWindow(w, &f.Pattern, ctx)
	}
}

// Purge implements core.Purger: it removes the state entries the feedback
// covers and returns the guards that pin them shut, so arriving tuples cannot
// recreate purged groups (the paper's MAX example: a tuple with value 40
// would otherwise re-open a window whose true max is ≥50). For a group- or
// window-bound pattern the prefix (ignoring the value) decides and the
// pattern itself is the guard. For a value bound on a monotone aggregate the
// current partial decides — it can only move further into the subset — and
// each purged (window, group) pair is guarded by an equality pattern on its
// prefix.
func (a *Aggregate) Purge(f core.Feedback, _ core.ResponsePlan) []core.Pin {
	var pins []core.Pin
	byValue := false
	switch core.ClassifyAggPattern(f.Pattern, a.groupOutIdx, a.valueIdx) {
	case core.AggShapeGroup:
		pins = []core.Pin{{Table: a.guardsPrefix, Guard: f}}
	case core.AggShapeValueUp, core.AggShapeValueDown:
		byValue = true
	default:
		return nil
	}
	for w, slot := range a.store.each {
		probe := a.probePrefix(w, slot)
		if byValue {
			probe = a.probeResult(w, slot)
		}
		if !f.Pattern.Matches(probe) {
			continue
		}
		if byValue {
			pat := punct.AllWild(a.out.Arity())
			for i, v := range w.key(slot) {
				pat = pat.With(a.groupOutIdx[i], punct.Eq(v))
			}
			pat = pat.With(a.wstartIdx, punct.Eq(a.wstartValue(w.wid)))
			pins = append(pins, core.Pin{Table: a.guardsPrefix,
				Guard: core.Feedback{Intent: core.Assumed, Pattern: pat, Origin: f.Origin, Seq: f.Seq}})
		}
		a.purged++
		w.purge(slot)
	}
	return pins
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
		// A tuple's max window start is floor(ts/slide)*slide; requiring
		// it ≤ x ⟺ ts < (floor(x/slide)+1)*slide.
		cutoff := (floorDiv(x, a.Window.Slide) + 1) * a.Window.Slide
		return out.With(a.TsAttr, punct.Lt(a.wstartTsValue(cutoff))), true
	case punct.Between:
		lo, hi := pr.Val.I, pr.Hi.I
		// Tuples whose windows ALL start within [lo, hi]: min window
		// start ≥ lo (⟺ ts ≥ lo + Range - Slide ... conservatively
		// ts ≥ loAligned) and max window start ≤ hi (as above).
		// For the min start: a tuple at ts has min start
		// (floor((ts-Range)/slide)+1)*slide ≥ lo
		// ⟺ ts ≥ lo + Range - slide + 1 ... we take the conservative
		// inclusive bound loTs = lo + Range - Slide; for tumbling
		// windows this is exactly lo.
		loTs := lo + a.Window.Range - a.Window.Slide
		hiCut := (floorDiv(hi, a.Window.Slide) + 1) * a.Window.Slide
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
		OpenGroups:    a.store.live(),
		WorkUnits:     a.meter.Total(),
	}
}

// AggregateStats is the operator's accounting snapshot.
type AggregateStats struct {
	In, Out, Folded             int64
	InSuppressed, OutSuppressed int64
	Purged, Partials            int64
	OpenGroups                  int
	WorkUnits                   int64
}
