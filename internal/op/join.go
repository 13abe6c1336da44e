package op

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// Join is a symmetric hash equi-join in the OOP style: both inputs build
// hash tables; embedded punctuation on each input's timestamp attribute
// purges state that can no longer find partners. The output schema is
// (L, J, R): all left attributes followed by the right attributes minus the
// join keys, matching the paper's Table 2 partition.
//
// Optional behaviours reproduce the paper's specialized joins:
//
//   - LeftOuter: unmatched left tuples are emitted padded with nulls once
//     right-side punctuation proves no partner can arrive (the Figure 1(b)
//     speed-map join keeps all fixed-sensor readings);
//   - Thrifty (§3.3 "Adaptive"): when the probe input's punctuation closes
//     a window that received no tuples, the join sends assumed feedback to
//     the other input for that window — "window 4 is empty, stop producing
//     tuples for it";
//   - Impatient (§3.4): each new key arriving on the scarce (left) input
//     triggers desired feedback to the right input — "I have vehicle data
//     for segment 3, period 7; prioritize its partners".
//
// Feedback handling implements Table 2 via core.JoinCharacterization.
type Join struct {
	exec.Base
	OpName      string
	Left, Right stream.Schema
	// LeftKeys/RightKeys are the equi-join attributes (parallel slices).
	LeftKeys, RightKeys []int
	// LeftTs/RightTs are the timestamp attributes used for state purging
	// (-1 disables punctuation-driven purging on that side).
	LeftTs, RightTs int
	// Residual, if set, further filters joined pairs (e.g. the speed-map
	// join's "sensor speed < 45" condition).
	Residual func(l, r stream.Tuple) bool
	// LeftOuter emits unmatched left tuples null-padded on purge.
	LeftOuter bool
	// Mode/Propagate configure feedback response as in Select.
	Mode      FeedbackMode
	Propagate bool
	// ThriftyWindow enables empty-window detection on the probe input
	// (ThriftyProbe side); feedback goes to the opposite input.
	ThriftyWindow *window.Spec
	ThriftyProbe  int
	// Impatient enables desired-feedback production toward input 1 for
	// every new join key arriving on input 0.
	Impatient bool
	// MaxChangelog caps the incremental-snapshot changelog summed over both
	// sides (dirty + dead keys). Tracking starts at the first capture and
	// records every mutation thereafter; if checkpointing then stops —
	// coordinator gone, persistent storage failures — the changelog would
	// grow without bound. Crossing the cap collapses it and makes the next
	// capture full (which re-enables tracking). 0 means the scaled default,
	// max(DefaultMaxChangelog, live table size); an explicit positive value
	// is an absolute limit; negative disables the cap.
	MaxChangelog int
	// Adaptive, if set, is invoked for every accepted input tuple and may
	// produce feedback toward either input — the §3.3 "Adaptive" source
	// category, where an operator discovers opportunities in its own
	// streams. The Figure 1(b) speed-map join uses it to tell the
	// vehicle-data side that an uncongested segment's window needs no
	// cleaning or aggregation.
	Adaptive func(input int, t stream.Tuple, send func(toInput int, f core.Feedback))

	responseLog
	out                 stream.Schema
	rightCarry          []int // right attrs carried to output (non-keys)
	part                core.JoinPartition
	leftMap, rightMap   core.AttrMap
	leftTable           map[string][]*joinEntry //pace:tracked
	rightTable          map[string][]*joinEntry //pace:tracked
	guardsL, guardsR    *core.GuardTable
	guardsOut           *core.GuardTable
	leftWM, rightWM     int64
	leftWMSet, rightWMS bool
	lastOutWM           int64
	lastOutWMSet        bool
	leftEOS, rightEOS   bool
	probeCounts         map[int64]int64 // thrifty: tuples per probe window
	probeDone           int64           // thrifty: windows already checked
	impatientKeys       map[string]bool
	feedbackSeq         int64
	// Changelog for incremental snapshots (state.go), indexed by side
	// (0 = left table, 1 = right table): keys whose entry lists changed or
	// vanished since the previous capture. nil until the first capture
	// enables tracking.
	chlogDirty [2]map[string]bool
	chlogDead  [2]map[string]bool

	emitted, outerEmitted, suppressedIn, suppressedOut, purgedByFeedback int64
	thriftySent, impatientSent                                           int64

	// Feedback accounting only; the counters above stay plain because
	// state.go serializes them into snapshots on the node goroutine, while
	// /metrics scrapes from another goroutine and may only touch atomics.
	// fb is never snapshotted and resets on restore.
	fb fbCounters

	// batchScratch backs ProcessTupleBatch's item unwrapping; reused across
	// batches, transient, never checkpointed.
	batchScratch []stream.Tuple
}

type joinEntry struct {
	t       stream.Tuple
	ts      int64
	matched bool
}

// Name implements exec.Operator.
func (j *Join) Name() string {
	if j.OpName != "" {
		return j.OpName
	}
	return "join"
}

// InSchemas implements exec.Operator.
func (j *Join) InSchemas() []stream.Schema { return []stream.Schema{j.Left, j.Right} }

// OutSchemas implements exec.Operator.
func (j *Join) OutSchemas() []stream.Schema {
	if j.out.Arity() == 0 {
		j.mustInit()
	}
	return []stream.Schema{j.out}
}

func (j *Join) mustInit() {
	if len(j.LeftKeys) != len(j.RightKeys) || len(j.LeftKeys) == 0 {
		panic(fmt.Sprintf("op: join %q: key lists must be non-empty and parallel", j.Name()))
	}
	isRightKey := map[int]bool{}
	for _, k := range j.RightKeys {
		isRightKey[k] = true
	}
	j.rightCarry = j.rightCarry[:0]
	var rightFields []stream.Field
	for i := 0; i < j.Right.Arity(); i++ {
		if !isRightKey[i] {
			j.rightCarry = append(j.rightCarry, i)
			rightFields = append(rightFields, j.Right.Field(i))
		}
	}
	rightSub, err := stream.NewSchema(rightFields...)
	if err != nil {
		panic(fmt.Sprintf("op: join %q: %v", j.Name(), err))
	}
	out, err := j.Left.Concat(rightSub, "right_")
	if err != nil {
		panic(fmt.Sprintf("op: join %q: %v", j.Name(), err))
	}
	j.out = out

	// Partition of the output schema.
	isLeftKey := map[int]bool{}
	for _, k := range j.LeftKeys {
		isLeftKey[k] = true
	}
	j.part = core.JoinPartition{}
	for i := 0; i < j.Left.Arity(); i++ {
		if isLeftKey[i] {
			j.part.Join = append(j.part.Join, i)
		} else {
			j.part.Left = append(j.part.Left, i)
		}
	}
	for r := range j.rightCarry {
		j.part.Right = append(j.part.Right, j.Left.Arity()+r)
	}

	// Attribute maps for propagation.
	lm := make([]int, out.Arity())
	rm := make([]int, out.Arity())
	for i := range lm {
		lm[i], rm[i] = -1, -1
	}
	for i := 0; i < j.Left.Arity(); i++ {
		lm[i] = i
	}
	for k, lk := range j.LeftKeys {
		rm[lk] = j.RightKeys[k]
	}
	for rIdx, src := range j.rightCarry {
		rm[j.Left.Arity()+rIdx] = src
	}
	j.leftMap = core.AttrMap{InputArity: j.Left.Arity(), ToInput: lm}
	j.rightMap = core.AttrMap{InputArity: j.Right.Arity(), ToInput: rm}
}

// Open implements exec.Operator.
func (j *Join) Open(exec.Context) error {
	if j.out.Arity() == 0 {
		j.mustInit()
	}
	j.leftTable = map[string][]*joinEntry{}
	j.rightTable = map[string][]*joinEntry{}
	j.guardsL = core.NewGuardTable(j.Left.Arity())
	j.guardsR = core.NewGuardTable(j.Right.Arity())
	j.guardsOut = core.NewGuardTable(j.out.Arity())
	j.probeCounts = map[int64]int64{}
	j.probeDone = -1
	j.impatientKeys = map[string]bool{}
	j.chlogDirty = [2]map[string]bool{}
	j.chlogDead = [2]map[string]bool{}
	return nil
}

// table returns the build table for a side (0 = left, 1 = right).
func (j *Join) table(side int) map[string][]*joinEntry {
	if side == 0 {
		return j.leftTable
	}
	return j.rightTable
}

// noteDirty records a changed entry list in the changelog.
func (j *Join) noteDirty(side int, key string) {
	if j.chlogDirty[side] == nil {
		return
	}
	j.chlogDirty[side][key] = true
	delete(j.chlogDead[side], key)
	j.capChangelog()
}

// noteDead records a vanished entry list in the changelog.
func (j *Join) noteDead(side int, key string) {
	if j.chlogDirty[side] == nil {
		return
	}
	delete(j.chlogDirty[side], key)
	j.chlogDead[side][key] = true
	j.capChangelog()
}

// capChangelog bounds changelog memory when checkpointing has stopped: past
// the cap the changelog is collapsed — tracking turns off on both sides, so
// CaptureState answers the next delta request with a full capture, exactly as
// if no capture had ever happened, and re-enables tracking at that cut. The
// default cap scales with the live tables: a changelog larger than the state
// itself means a delta has no advantage over a full capture (the
// dead-key-accumulation failure mode), while a fixed constant would collapse
// perfectly healthy intervals on high-cardinality plans.
func (j *Join) capChangelog() {
	limit := j.MaxChangelog
	if limit < 0 {
		return
	}
	if limit == 0 {
		limit = DefaultMaxChangelog
		if n := len(j.leftTable) + len(j.rightTable); n > limit {
			limit = n
		}
	}
	total := 0
	for side := 0; side < 2; side++ {
		total += len(j.chlogDirty[side]) + len(j.chlogDead[side])
	}
	if total > limit {
		j.chlogDirty = [2]map[string]bool{}
		j.chlogDead = [2]map[string]bool{}
	}
}

func (j *Join) outTuple(l, r stream.Tuple) stream.Tuple {
	// One exact-size allocation; the old Concat(Project(...)) chain built
	// and discarded an intermediate right-side tuple per emitted pair.
	vals := make([]stream.Value, 0, j.out.Arity())
	vals = l.AppendValues(vals)
	vals = r.AppendProjected(vals, j.rightCarry)
	return stream.Tuple{Values: vals, Seq: l.Seq}
}

func (j *Join) emitJoined(l, r stream.Tuple, ctx exec.Context) {
	if j.Residual != nil && !j.Residual(l, r) {
		return
	}
	t := j.outTuple(l, r)
	if j.Mode != FeedbackIgnore && j.guardsOut.Suppress(t) {
		j.suppressedOut++
		return
	}
	j.emitted++
	ctx.Emit(t)
}

func (j *Join) emitOuter(l stream.Tuple, ctx exec.Context) {
	vals := make([]stream.Value, 0, j.out.Arity())
	vals = append(vals, l.Values...)
	for range j.rightCarry {
		vals = append(vals, stream.Null)
	}
	t := stream.Tuple{Values: vals, Seq: l.Seq}
	if j.Mode != FeedbackIgnore && j.guardsOut.Suppress(t) {
		j.suppressedOut++
		return
	}
	j.outerEmitted++
	ctx.Emit(t)
}

// ProcessTuple implements exec.Operator.
func (j *Join) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	switch input {
	case 0:
		return j.processLeft(t, ctx)
	case 1:
		return j.processRight(t, ctx)
	}
	return fmt.Errorf("op: join %q: tuple on unexpected input %d (two-input operator; check plan wiring)", j.Name(), input)
}

func (j *Join) processLeft(t stream.Tuple, ctx exec.Context) error {
	if j.Mode == FeedbackExploit && j.guardsL.Suppress(t) {
		j.suppressedIn++
		return nil
	}
	return j.applyLeft(t, ctx)
}

// applyLeft is processLeft past the input-guard probe: build, probe, emit.
//
//pace:hotpath
func (j *Join) applyLeft(t stream.Tuple, ctx exec.Context) error {
	key := t.Key(j.LeftKeys)
	if j.Impatient && !j.impatientKeys[key] {
		j.impatientKeys[key] = true
		j.sendImpatient(t, ctx)
	}
	e := &joinEntry{t: t, ts: j.tsOf(t, j.LeftTs)} //pace:allow-alloc every arriving tuple is retained in the hash table; the entry is the state
	for _, r := range j.rightTable[key] {
		if j.Residual == nil || j.Residual(t, r.t) {
			if !r.matched {
				r.matched = true
				j.noteDirty(1, key)
			}
			e.matched = true
			j.emitJoined(t, r.t, ctx)
		}
	}
	if j.ThriftyWindow != nil && j.ThriftyProbe == 0 {
		j.countProbe(e.ts)
	}
	j.leftTable[key] = append(j.leftTable[key], e)
	j.noteDirty(0, key)
	j.runAdaptive(0, t, ctx)
	return nil
}

// runAdaptive invokes the Adaptive hook, if configured.
func (j *Join) runAdaptive(input int, t stream.Tuple, ctx exec.Context) {
	if j.Adaptive == nil {
		return
	}
	j.Adaptive(input, t, func(toInput int, f core.Feedback) {
		if f.Origin == "" {
			f.Origin = j.Name()
		}
		j.feedbackSeq++
		f.Seq = j.feedbackSeq
		ctx.SendFeedback(toInput, f)
	})
}

func (j *Join) processRight(t stream.Tuple, ctx exec.Context) error {
	if j.Mode == FeedbackExploit && j.guardsR.Suppress(t) {
		j.suppressedIn++
		return nil
	}
	return j.applyRight(t, ctx)
}

// applyRight is processRight past the input-guard probe.
//
//pace:hotpath
func (j *Join) applyRight(t stream.Tuple, ctx exec.Context) error {
	key := t.Key(j.RightKeys)
	e := &joinEntry{t: t, ts: j.tsOf(t, j.RightTs)} //pace:allow-alloc every arriving tuple is retained in the hash table; the entry is the state
	for _, l := range j.leftTable[key] {
		if j.Residual == nil || j.Residual(l.t, t) {
			if !l.matched {
				l.matched = true
				j.noteDirty(0, key)
			}
			e.matched = true
			j.emitJoined(l.t, t, ctx)
		}
	}
	if j.ThriftyWindow != nil && j.ThriftyProbe == 1 {
		j.countProbe(e.ts)
	}
	j.rightTable[key] = append(j.rightTable[key], e)
	j.noteDirty(1, key)
	j.runAdaptive(1, t, ctx)
	return nil
}

// ApplyTupleBatch implements exec.TupleBatchApplier: a symmetric hash join
// has per-tuple probe-and-emit obligations, so the batch path keeps the
// tuple loop but hoists the input-guard probe — one Active() check per run
// instead of one table walk per tuple. Guards only change between runs
// (ProcessFeedback and ProcessPunct never interleave with a batch), so the
// hoisted decision holds for the whole run.
func (j *Join) ApplyTupleBatch(input int, ts []stream.Tuple, ctx exec.Context) error {
	var guards *core.GuardTable
	var apply func(t stream.Tuple, ctx exec.Context) error
	switch input {
	case 0:
		guards, apply = j.guardsL, j.applyLeft
	case 1:
		guards, apply = j.guardsR, j.applyRight
	default:
		return fmt.Errorf("op: join %q: tuple on unexpected input %d (two-input operator; check plan wiring)", j.Name(), input)
	}
	guarded := j.Mode == FeedbackExploit && guards.Active() > 0
	for i := range ts {
		t := ts[i]
		if guarded && guards.Suppress(t) {
			j.suppressedIn++
			continue
		}
		if err := apply(t, ctx); err != nil {
			return err
		}
	}
	return nil
}

// ProcessTupleBatch implements exec.TupleBatcher by unwrapping the run into
// a reused scratch slice and taking the batch-apply path.
func (j *Join) ProcessTupleBatch(input int, items []queue.Item, ctx exec.Context) error {
	buf := j.batchScratch[:0]
	for i := range items {
		buf = append(buf, items[i].Tuple)
	}
	j.batchScratch = buf
	return j.ApplyTupleBatch(input, buf, ctx)
}

func (j *Join) tsOf(t stream.Tuple, attr int) int64 {
	if attr < 0 {
		return math.MaxInt64
	}
	return t.At(attr).I
}

// sendImpatient emits desired feedback toward input 1, describing the join
// key values just seen on input 0 in the right input's schema.
func (j *Join) sendImpatient(l stream.Tuple, ctx exec.Context) {
	pat := punct.AllWild(j.Right.Arity())
	for k, lk := range j.LeftKeys {
		pat = pat.With(j.RightKeys[k], punct.Eq(l.At(lk)))
	}
	j.feedbackSeq++
	ctx.SendFeedback(1, core.Feedback{
		Intent: core.Desired, Pattern: pat, Origin: j.Name(), Seq: j.feedbackSeq,
	})
	j.impatientSent++
}

// countProbe tallies probe-side tuples per thrifty window.
func (j *Join) countProbe(ts int64) {
	lo, hi := j.ThriftyWindow.WindowsOf(ts)
	for w := lo; w <= hi; w++ {
		j.probeCounts[w]++
	}
}

// checkThrifty fires assumed feedback for every probe window closed by the
// new probe watermark that received no tuples.
func (j *Join) checkThrifty(probeWM int64, ctx exec.Context) {
	lastFull := j.ThriftyWindow.LastFullWindow(probeWM)
	other := 1 - j.ThriftyProbe
	otherTs := j.LeftTs
	otherArity := j.Left.Arity()
	if other == 1 {
		otherTs = j.RightTs
		otherArity = j.Right.Arity()
	}
	if otherTs < 0 {
		return
	}
	for w := j.probeDone + 1; w <= lastFull; w++ {
		if j.probeCounts[w] == 0 {
			start, end := j.ThriftyWindow.Extent(w)
			j.feedbackSeq++
			ctx.SendFeedback(other, core.Feedback{
				Intent: core.Assumed,
				Pattern: punct.OnAttr(otherArity, otherTs,
					punct.Range(j.tsValue(other, start), j.tsValue(other, end-1))),
				Origin: j.Name(), Seq: j.feedbackSeq,
			})
			j.thriftySent++
		}
		delete(j.probeCounts, w)
	}
	if lastFull > j.probeDone {
		j.probeDone = lastFull
	}
}

func (j *Join) tsValue(input int, v int64) stream.Value {
	sch, attr := j.Left, j.LeftTs
	if input == 1 {
		sch, attr = j.Right, j.RightTs
	}
	if sch.Field(attr).Kind == stream.KindTime {
		return stream.TimeMicros(v)
	}
	return stream.Int(v)
}

// ProcessPunct implements exec.Operator: timestamp punctuation purges the
// opposite table and may emit output punctuation and thrifty feedback.
func (j *Join) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	if input != 0 && input != 1 {
		return fmt.Errorf("op: join %q: punctuation on unexpected input %d (two-input operator; check plan wiring)", j.Name(), input)
	}
	tsAttr := j.LeftTs
	if input == 1 {
		tsAttr = j.RightTs
	}
	if tsAttr < 0 {
		return nil
	}
	bound := e.Pattern.Bound()
	if len(bound) != 1 || bound[0] != tsAttr {
		if input == 0 {
			j.guardsL.ObservePunct(e)
		} else {
			j.guardsR.ObservePunct(e)
		}
		return nil
	}
	pr := e.Pattern.Pred(tsAttr)
	var wm int64
	switch pr.Op {
	case punct.LE:
		wm = pr.Val.I
	case punct.LT:
		wm = pr.Val.I - 1
	default:
		return nil
	}
	if input == 0 {
		j.guardsL.ObservePunct(e)
		if !j.leftWMSet || wm > j.leftWM {
			j.leftWM, j.leftWMSet = wm, true
		}
		// No more left tuples ≤ wm: right entries at or below can never
		// match again.
		j.purgeTable(1, wm, false, ctx)
		if j.ThriftyWindow != nil && j.ThriftyProbe == 0 {
			j.checkThrifty(wm, ctx)
		}
	} else {
		j.guardsR.ObservePunct(e)
		if !j.rightWMS || wm > j.rightWM {
			j.rightWM, j.rightWMS = wm, true
		}
		j.purgeTable(0, wm, j.LeftOuter, ctx)
		if j.ThriftyWindow != nil && j.ThriftyProbe == 1 {
			j.checkThrifty(wm, ctx)
		}
	}
	j.emitOutputPunct(ctx)
	return nil
}

// purgeTable drops the given side's entries with ts ≤ wm; for the left
// table under LeftOuter, unmatched entries are emitted null-padded first.
func (j *Join) purgeTable(side int, wm int64, outer bool, ctx exec.Context) {
	table := j.table(side)
	for k, entries := range table {
		kept := entries[:0]
		for _, e := range entries {
			if e.ts <= wm {
				if outer && !e.matched {
					j.emitOuter(e.t, ctx)
				}
				continue
			}
			kept = append(kept, e)
		}
		switch {
		case len(kept) == len(entries):
		case len(kept) == 0:
			delete(table, k)
			j.noteDead(side, k)
		default:
			table[k] = kept
			j.noteDirty(side, k)
		}
	}
}

// emitOutputPunct asserts progress on the output's timestamp attribute
// (the left ts position) once both inputs have punctuated.
func (j *Join) emitOutputPunct(ctx exec.Context) {
	if j.LeftTs < 0 || j.RightTs < 0 {
		return
	}
	lw, rw := j.leftWM, j.rightWM
	if j.leftEOS {
		lw = math.MaxInt64
	} else if !j.leftWMSet {
		return
	}
	if j.rightEOS {
		rw = math.MaxInt64
	} else if !j.rightWMS {
		return
	}
	wm := lw
	if rw < wm {
		wm = rw
	}
	if wm == math.MaxInt64 {
		return
	}
	if j.lastOutWMSet && wm <= j.lastOutWM {
		return
	}
	j.lastOutWM, j.lastOutWMSet = wm, true
	outPunct := punct.NewEmbedded(punct.OnAttr(j.out.Arity(), j.LeftTs, punct.Le(j.tsValue(0, wm))))
	j.guardsOut.ObservePunct(outPunct)
	ctx.EmitPunct(outPunct)
}

// ProcessEOS implements exec.Operator.
func (j *Join) ProcessEOS(input int, ctx exec.Context) error {
	if input != 0 && input != 1 {
		return fmt.Errorf("op: join %q: EOS on unexpected input %d (two-input operator; check plan wiring)", j.Name(), input)
	}
	if input == 0 {
		j.leftEOS = true
		j.purgeTable(1, math.MaxInt64, false, ctx)
	} else {
		j.rightEOS = true
		j.purgeTable(0, math.MaxInt64, j.LeftOuter, ctx)
	}
	return nil
}

// ProcessFeedback implements exec.Operator per Table 2.
func (j *Join) ProcessFeedback(_ int, f core.Feedback, ctx exec.Context) error {
	j.fb.received.Add(1)
	resp := core.Response{Feedback: f}
	defer func() {
		if len(resp.Actions) == 0 {
			resp.Actions = []core.Action{core.ActNone}
		}
		j.logResponse(resp)
	}()
	if f.Intent != core.Assumed {
		// Desired/demanded: a symmetric hash join does not block or
		// reorder, so the useful response is relaying to whichever input
		// carries the subset.
		if j.Propagate {
			j.relayToCarriers(f, &resp, ctx)
		}
		return nil
	}
	if j.Mode == FeedbackIgnore {
		return nil
	}
	shape := core.ClassifyJoinPattern(f.Pattern, j.part)
	plan := core.JoinCharacterization(shape, f.Pattern, j.leftMap, j.rightMap)
	resp.Note = plan.Explanation

	j.guardsOut.Install(f)
	j.fb.exploited.Add(1)
	resp.Actions = append(resp.Actions, core.ActGuardOutput)
	if j.Mode == FeedbackGuardOutput {
		return nil
	}
	for _, act := range plan.Actions {
		switch act {
		case core.ActPurgeState:
			j.purgeByFeedback(shape, f.Pattern)
			resp.Actions = append(resp.Actions, core.ActPurgeState)
		case core.ActGuardInput:
			j.guardInputs(shape, f)
			resp.Actions = append(resp.Actions, core.ActGuardInput)
		}
	}
	if j.Propagate {
		resp.Propagated = make([]*core.Feedback, 2)
		for side, pp := range plan.Propagate {
			if pp == nil {
				continue
			}
			relayed := f.Relayed(*pp)
			ctx.SendFeedback(side, relayed)
			j.fb.forwarded.Add(1)
			resp.Propagated[side] = &relayed
		}
		if resp.Propagated[0] != nil || resp.Propagated[1] != nil {
			resp.Actions = append(resp.Actions, core.ActPropagate)
		}
	}
	return nil
}

// relayToCarriers propagates non-assumed feedback to each input that
// carries every bound attribute.
func (j *Join) relayToCarriers(f core.Feedback, resp *core.Response, ctx exec.Context) {
	resp.Propagated = make([]*core.Feedback, 2)
	for side, m := range []core.AttrMap{j.leftMap, j.rightMap} {
		if prop := core.SafePropagation(f.Pattern, m); prop.OK {
			relayed := f.Relayed(prop.Pattern)
			ctx.SendFeedback(side, relayed)
			j.fb.forwarded.Add(1)
			resp.Propagated[side] = &relayed
		}
	}
	if resp.Propagated[0] != nil || resp.Propagated[1] != nil {
		resp.Actions = append(resp.Actions, core.ActPropagate)
	}
}

// purgeByFeedback removes hash-table entries covered by the feedback,
// matching each side's entries against the pattern projected into that
// side's input schema.
func (j *Join) purgeByFeedback(shape core.JoinShape, p punct.Pattern) {
	purgeSide := func(side int, m core.AttrMap) {
		prop := core.SafePropagation(p, m)
		if !prop.OK {
			return
		}
		table := j.table(side)
		for k, entries := range table {
			kept := entries[:0]
			for _, e := range entries {
				if prop.Pattern.Matches(e.t) {
					j.purgedByFeedback++
					continue
				}
				kept = append(kept, e)
			}
			switch {
			case len(kept) == len(entries):
			case len(kept) == 0:
				delete(table, k)
				j.noteDead(side, k)
			default:
				table[k] = kept
				j.noteDirty(side, k)
			}
		}
	}
	switch shape {
	case core.JoinShapeJ:
		purgeSide(0, j.leftMap)
		purgeSide(1, j.rightMap)
	case core.JoinShapeL, core.JoinShapeLJ:
		purgeSide(0, j.leftMap)
	case core.JoinShapeR, core.JoinShapeJR:
		purgeSide(1, j.rightMap)
	}
}

// guardInputs installs input guards on the side(s) that carry the pattern.
func (j *Join) guardInputs(shape core.JoinShape, f core.Feedback) {
	install := func(g *core.GuardTable, m core.AttrMap) {
		if prop := core.SafePropagation(f.Pattern, m); prop.OK {
			g.Install(core.Feedback{Intent: core.Assumed, Pattern: prop.Pattern, Origin: f.Origin, Seq: f.Seq})
		}
	}
	switch shape {
	case core.JoinShapeJ:
		install(j.guardsL, j.leftMap)
		install(j.guardsR, j.rightMap)
	case core.JoinShapeL, core.JoinShapeLJ:
		install(j.guardsL, j.leftMap)
	case core.JoinShapeR, core.JoinShapeJR:
		install(j.guardsR, j.rightMap)
	}
}

// TelemetryVars implements telemetry.VarExporter. Only the feedback
// counters are exported: the tuple counters are serialized snapshot state
// and may not be read off the node goroutine (see the field comment).
func (j *Join) TelemetryVars() []telemetry.Var { return j.fb.vars() }

// JoinStats is the operator's accounting snapshot.
type JoinStats struct {
	Emitted, OuterEmitted       int64
	SuppressedIn, SuppressedOut int64
	PurgedByFeedback            int64
	ThriftySent, ImpatientSent  int64
	LeftEntries, RightEntries   int
}

// Stats reports tuple accounting.
func (j *Join) Stats() JoinStats {
	count := func(t map[string][]*joinEntry) int {
		n := 0
		for _, es := range t {
			n += len(es)
		}
		return n
	}
	return JoinStats{
		Emitted:          j.emitted,
		OuterEmitted:     j.outerEmitted,
		SuppressedIn:     j.suppressedIn,
		SuppressedOut:    j.suppressedOut,
		PurgedByFeedback: j.purgedByFeedback,
		ThriftySent:      j.thriftySent,
		ImpatientSent:    j.impatientSent,
		LeftEntries:      count(j.leftTable),
		RightEntries:     count(j.rightTable),
	}
}
