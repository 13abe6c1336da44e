package op

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// Join is a symmetric hash equi-join in the OOP style: both inputs build
// hash tables; embedded punctuation on each input's timestamp attribute
// purges state that can no longer find partners. The two timestamps are a
// join-key pair, so a tuple at or below the other input's punctuation can
// have no partner to come: it probes and is not stored, and the output is a
// function of the inputs, not of how they interleave (DESIGN.md §5.1). The
// output schema is (L, J, R): all left attributes followed by the right
// attributes minus the join keys, matching the paper's Table 2 partition.
//
// Optional behaviours reproduce the paper's specialized joins:
//
//   - LeftOuter: unmatched left tuples are emitted padded with nulls once
//     right-side punctuation proves no partner can arrive, on arrival if it
//     already has (the Figure 1(b) speed-map join keeps all fixed-sensor
//     readings);
//   - Thrifty (§3.3 "Adaptive"): when the probe input's punctuation closes
//     a window in which the probe side holds no entry, the join sends
//     assumed feedback to the other input for that window — "window 4 is
//     empty, stop producing tuples for it";
//   - Impatient (§3.4): each key the scarce (left) input's side starts
//     holding triggers desired feedback to the right input — "I have
//     vehicle data for segment 3, period 7; prioritize its partners".
//
// Feedback handling implements Table 2 via core.JoinCharacterization.
type Join struct {
	exec.Responding
	snapshot.State
	OpName      string
	Left, Right stream.Schema
	// LeftKeys/RightKeys are the equi-join attributes (parallel slices).
	LeftKeys, RightKeys []int
	// LeftTs/RightTs are the timestamp attributes punctuation purges state
	// by: a pair at one position of LeftKeys/RightKeys.
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
	// (ThriftyProbe side); feedback goes to the opposite input. A LEFT
	// OUTER join must probe its left input.
	//pace:allow-unreached the §3.3 thrifty producer, which no experiment runs; it reads the probe side and keeps no state, but removing it moves Join's state golden
	ThriftyWindow *window.Spec
	ThriftyProbe  int //pace:allow-unreached the §3.3 thrifty producer, as ThriftyWindow
	// Impatient enables desired-feedback production toward input 1 for
	// every join key the left side starts holding.
	Impatient bool
	// Adaptive, if set, is invoked for every accepted input tuple and may
	// produce feedback toward either input — the §3.3 "Adaptive" source
	// category, where an operator discovers opportunities in its own
	// streams. The Figure 1(b) speed-map join uses it to tell the
	// vehicle-data side that an uncongested segment's window needs no
	// cleaning or aggregation.
	Adaptive func(input int, t stream.Tuple, send func(toInput int, f core.Feedback))

	out        stream.Schema
	rightCarry []int // right attrs carried to output (non-keys)
	part       core.JoinPartition
	inMap      [2]core.AttrMap // output attribute → attribute of input 0 / 1
	// tsKeyed: LeftTs/RightTs are a pair of the join keys, so punctuation on
	// one input proves the other's older entries can match nothing more.
	tsKeyed bool
	// sides are the join's state, per input (0 = left) the tuples waiting
	// for partners (joinstore.go), so also the keys the impatient join has
	// asked for and the windows the thrifty join finds empty.
	sides        [2]joinSide
	guardsIn     [2]*core.GuardTable
	guardsOut    *core.GuardTable
	wm           [2]watermark // per-input punctuation progress and EOS
	lastOutWM    int64
	lastOutWMSet bool
	feedbackSeq  int64

	emitted, outerEmitted, suppressedIn, suppressedOut, purgedByFeedback int64
	thriftySent, impatientSent                                           int64

	// batchScratch backs ProcessTupleBatch's item unwrapping and one makes
	// ProcessTuple's tuple a run of one; reused, transient, never checkpointed.
	batchScratch []stream.Tuple
	one          [1]stream.Tuple
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
	if j.LeftTs < 0 || j.LeftTs >= j.Left.Arity() || j.RightTs < 0 || j.RightTs >= j.Right.Arity() {
		panic(fmt.Sprintf("op: join %q: timestamps must be attributes of their inputs", j.Name()))
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
	j.inMap = [2]core.AttrMap{
		{InputArity: j.Left.Arity(), ToInput: lm},
		{InputArity: j.Right.Arity(), ToInput: rm},
	}
	j.tsKeyed = false
	for k, lk := range j.LeftKeys {
		j.tsKeyed = j.tsKeyed || lk == j.LeftTs && j.RightKeys[k] == j.RightTs
	}
}

// Open implements exec.Operator. A thrifty LEFT OUTER join probing its right
// input is refused: an empty right window would tell the left input to drop
// tuples the join owes a null-padded row.
func (j *Join) Open(exec.Context) error {
	if j.out.Arity() == 0 {
		j.mustInit()
	}
	if j.ThriftyWindow != nil && j.ThriftyProbe == 1 && j.LeftOuter {
		return fmt.Errorf("op: join %q: a thrifty LEFT OUTER join must probe its left input: an empty right window does not make the left tuples in it useless", j.Name())
	}
	j.resetSides()
	j.Bind(j, j.Mode, j.Propagate, 1, j.out.Arity())
	j.guardsOut = j.OutTables()[0]
	j.guardsIn = [2]*core.GuardTable{j.Pinned(0, j.Left.Arity()), j.Pinned(1, j.Right.Arity())}
	j.keepState()
	return nil
}

// resetSides empties both sides, each keyed on its input's join keys.
func (j *Join) resetSides() {
	j.sides[0].reset(j.LeftKeys)
	j.sides[1].reset(j.RightKeys)
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
	if j.guardsOut.Suppress(t) {
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
	if j.guardsOut.Suppress(t) {
		j.suppressedOut++
		return
	}
	j.outerEmitted++
	ctx.Emit(t)
}

// ProcessTuple implements exec.Operator: a run of one through
// ApplyTupleBatch.
func (j *Join) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	j.one[0] = t
	return j.ApplyTupleBatch(input, j.one[:], ctx)
}

// apply is one tuple past the input-guard probe: probe the other side's
// entries for partners, oldest first, then keep the tuple for partners yet
// to come — unless the other input has promised there are none, its
// timestamp being a key at or below that input's punctuation. The impatient
// join asks for a left key's partners when the left side starts holding it.
//
//pace:hotpath
func (j *Join) apply(side int, t stream.Tuple, ctx exec.Context) {
	mine, other := &j.sides[side], &j.sides[1-side]
	h := hashKey(t.Values, mine.cols)
	ts := j.tsOf(side, t)
	matched := false
	for i := other.first(h, t.Values, mine.cols); i >= 0; i = other.entries[i].next {
		l, r := t, other.entries[i].t
		if side == 1 {
			l, r = r, l
		}
		if j.Residual == nil || j.Residual(l, r) {
			other.entries[i].matched = true
			matched = true
			j.emitJoined(l, r, ctx)
		}
	}
	if w := &j.wm[1-side]; w.eos || w.set && ts <= w.v {
		if side == 0 && j.LeftOuter && !matched {
			j.emitOuter(t, ctx)
		}
	} else if mine.link(joinEntry{t: mine.keep(t), ts: ts, hash: h, matched: matched}) && side == 0 && j.Impatient {
		j.sendImpatient(t, ctx)
	}
	j.runAdaptive(side, t, ctx)
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

// ApplyTupleBatch implements exec.TupleBatchApplier, and is the operator's
// one data loop: a symmetric hash join has per-tuple probe-and-emit
// obligations, so it keeps the tuple loop but hoists the input-guard probe —
// one Active() check per run instead of one table walk per tuple. Guards only change between runs
// (ProcessFeedback and ProcessPunct never interleave with a batch), so the
// hoisted decision holds for the whole run.
func (j *Join) ApplyTupleBatch(input int, ts []stream.Tuple, ctx exec.Context) error {
	guards := j.guardsIn[input]
	guarded := guards.Active() > 0
	for i := range ts {
		if guarded && guards.Suppress(ts[i]) {
			j.suppressedIn++
			continue
		}
		j.apply(input, ts[i], ctx)
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

// tsAttr returns the timestamp attribute of an input's schema.
func (j *Join) tsAttr(input int) int {
	if input == 0 {
		return j.LeftTs
	}
	return j.RightTs
}

// tsOf returns the timestamp punctuation purges t by.
func (j *Join) tsOf(input int, t stream.Tuple) int64 { return t.At(j.tsAttr(input)).I }

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

// checkThrifty sends the other input assumed feedback for each probe window
// that probe punctuation closes — past prev, the probe frontier before it,
// through wm — in which the probe side holds no entry and which the other
// input's frontier does not already cover: the timestamp being a key, the
// other input's tuples there can match nothing. The first probe punctuation
// checks from the earliest probe entry held, and nothing if none is.
func (j *Join) checkThrifty(prev watermark, wm int64, ctx exec.Context) {
	spec, probe, other := j.ThriftyWindow, &j.sides[j.ThriftyProbe], 1-j.ThriftyProbe
	o, from := j.wm[other], int64(0)
	switch {
	case o.eos:
		return
	case prev.set:
		from = spec.LastFullWindow(prev.v) + 1
	case len(probe.entries) > 0:
		from, _ = spec.WindowsOf(probe.minTs)
	default:
		return
	}
	if o.set {
		from = max(from, spec.LastFullWindow(o.v)+1)
	}
	otherArity := [2]stream.Schema{j.Left, j.Right}[other].Arity()
	last := spec.LastFullWindow(wm)
	for w := from; w <= last; w++ {
		// Every window short of the next one an entry lies in is empty.
		for held := probe.firstWindowFrom(spec, w); w < min(held, last+1); w++ {
			start, end := spec.Extent(w)
			j.feedbackSeq++
			ctx.SendFeedback(other, core.Feedback{
				Intent: core.Assumed,
				Pattern: punct.OnAttr(otherArity, j.tsAttr(other),
					punct.Range(j.tsValue(other, start), j.tsValue(other, end-1))),
				Origin: j.Name(), Seq: j.feedbackSeq,
			})
			j.thriftySent++
		}
	}
}

// watermark is one input's progress on its timestamp attribute.
type watermark struct {
	set bool
	v   int64 // inclusive progress bound, micros/int domain
	eos bool
}

// tsValue is v as a value of input's timestamp attribute.
func (j *Join) tsValue(input int, v int64) stream.Value {
	return stream.Ordinal([2]stream.Schema{j.Left, j.Right}[input].Field(j.tsAttr(input)).Kind, v)
}

// ProcessPunct implements exec.Operator: timestamp punctuation purges the
// opposite side and may emit output punctuation and thrifty feedback. A join
// whose timestamps are not a join-key pair is refused here, where its output
// would start to depend on how its inputs interleave.
func (j *Join) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	j.Observe(input, e)
	attr, wm, ok := e.Pattern.Progress()
	if !ok || attr != j.tsAttr(input) {
		return nil
	}
	if !j.tsKeyed {
		return fmt.Errorf("op: join %q: timestamps %s and %s are not a pair of its join keys, so purging on punctuation would make its output depend on how its inputs interleave",
			j.Name(), j.Left.Field(j.LeftTs).Name, j.Right.Field(j.RightTs).Name)
	}
	prev := j.wm[input]
	if w := &j.wm[input]; !w.set || wm > w.v {
		w.v, w.set = wm, true
	}
	// No more tuples ≤ wm on this input: the other side's entries at or
	// below can never match again.
	j.purgeOpposite(input, wm, ctx)
	if j.ThriftyWindow != nil && j.ThriftyProbe == input {
		j.checkThrifty(prev, wm, ctx)
	}
	j.emitOutputPunct(ctx)
	return nil
}

// purgeOpposite drops what progress to wm on input (math.MaxInt64 at its
// EOS) proves dead: the other side's entries with ts ≤ wm. Under LeftOuter,
// unmatched left entries are emitted null-padded first, in arrival order.
func (j *Join) purgeOpposite(input int, wm int64, ctx exec.Context) {
	var victim func(*joinEntry)
	if input == 1 && j.LeftOuter {
		victim = func(e *joinEntry) {
			if !e.matched {
				j.emitOuter(e.t, ctx)
			}
		}
	}
	j.sides[1-input].purgeThrough(wm, victim)
}

// emitOutputPunct asserts progress on the output's timestamp attribute
// (the left ts position) once both inputs have punctuated.
func (j *Join) emitOutputPunct(ctx exec.Context) {
	lw, rw := j.wm[0].v, j.wm[1].v
	if j.wm[0].eos {
		lw = math.MaxInt64
	} else if !j.wm[0].set {
		return
	}
	if j.wm[1].eos {
		rw = math.MaxInt64
	} else if !j.wm[1].set {
		return
	}
	wm := min(lw, rw)
	if wm == math.MaxInt64 {
		return
	}
	if j.lastOutWMSet && wm <= j.lastOutWM {
		return
	}
	j.lastOutWM, j.lastOutWMSet = wm, true
	outPunct := punct.NewEmbedded(punct.OnAttr(j.out.Arity(), j.LeftTs, punct.Le(j.tsValue(0, wm))))
	ctx.EmitPunct(outPunct)
}

// ProcessEOS implements exec.Operator.
func (j *Join) ProcessEOS(input int, ctx exec.Context) error {
	j.wm[input].eos = true
	j.purgeOpposite(input, math.MaxInt64, ctx)
	return nil
}

// Characterize implements core.Characterizer per Table 2. Desired and
// demanded feedback a symmetric hash join cannot act on — it does not block
// or reorder — so the useful response is relaying to whichever input carries
// the subset.
func (j *Join) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	if j.out.Arity() == 0 {
		j.mustInit()
	}
	if f.Intent != core.Assumed {
		return core.Stateless(f, nil, j.inMap[0], j.inMap[1])
	}
	return core.JoinCharacterization(core.ClassifyJoinPattern(f.Pattern, j.part), f.Pattern, j.inMap[0], j.inMap[1])
}

// Purge implements core.Purger. The inputs whose state and tuples a pattern
// describes are the ones it propagates to (Table 2: both for a join-attribute
// pattern, one for a pattern bound on that side): each loses the entries that
// match the pattern in its own schema and is guarded by that pattern.
func (j *Join) Purge(f core.Feedback, row core.ResponsePlan) []core.Pin {
	var pins []core.Pin
	for side, pp := range row.Propagate {
		if pp == nil {
			continue
		}
		n := j.sides[side].removeWhere(func(e *joinEntry) bool { return pp.Matches(e.t) }, nil)
		j.purgedByFeedback += int64(n)
		pins = append(pins, core.Pin{Table: j.guardsIn[side],
			Guard: core.Feedback{Intent: core.Assumed, Pattern: *pp, Origin: f.Origin, Seq: f.Seq}})
	}
	return pins
}

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
	return JoinStats{
		Emitted:          j.emitted,
		OuterEmitted:     j.outerEmitted,
		SuppressedIn:     j.suppressedIn,
		SuppressedOut:    j.suppressedOut,
		PurgedByFeedback: j.purgedByFeedback,
		ThriftySent:      j.thriftySent,
		ImpatientSent:    j.impatientSent,
		LeftEntries:      len(j.sides[0].entries),
		RightEntries:     len(j.sides[1].entries),
	}
}
