package op

import (
	"fmt"
	"math"
	"slices"

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
	exec.Responding
	snapshot.State
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
	//pace:allow-unreached the §3.3 thrifty producer; removing it moves Join's state golden
	ThriftyWindow *window.Spec
	ThriftyProbe  int //pace:allow-unreached the §3.3 thrifty producer, as ThriftyWindow
	// Impatient enables desired-feedback production toward input 1 for
	// every new join key arriving on input 0.
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
	// askedTs is the position within LeftKeys of the left timestamp
	// attribute, or -1: when the timestamp is part of the key, left
	// punctuation proves old keys cannot recur and the asked set sheds them.
	askedTs int
	// store holds the entries of both inputs and the impatient join's asked
	// keys (joinstore.go).
	store        joinStore
	guardsIn     [2]*core.GuardTable
	guardsOut    *core.GuardTable
	wm           [2]watermark // per-input punctuation progress and EOS
	lastOutWM    int64
	lastOutWMSet bool
	probeCounts  map[int64]int64 // thrifty: tuples per probe window
	probeDone    int64           // thrifty: windows already checked
	feedbackSeq  int64

	emitted, outerEmitted, suppressedIn, suppressedOut, purgedByFeedback int64
	thriftySent, impatientSent                                           int64

	// batchScratch backs ProcessTupleBatch's item unwrapping; reused across
	// batches, transient, never checkpointed.
	batchScratch []stream.Tuple
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
	j.inMap = [2]core.AttrMap{
		{InputArity: j.Left.Arity(), ToInput: lm},
		{InputArity: j.Right.Arity(), ToInput: rm},
	}
	j.askedTs = slices.Index(j.LeftKeys, j.LeftTs)
}

// Open implements exec.Operator.
func (j *Join) Open(exec.Context) error {
	if j.out.Arity() == 0 {
		j.mustInit()
	}
	j.store.reset(j.LeftKeys, j.RightKeys)
	j.Bind(j, j.Mode, j.Propagate, 1, j.out.Arity())
	j.guardsOut = j.OutTables()[0]
	j.guardsIn = [2]*core.GuardTable{j.Pinned(0, j.Left.Arity()), j.Pinned(1, j.Right.Arity())}
	j.probeCounts = map[int64]int64{}
	j.probeDone = -1
	j.keepState()
	return nil
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

// ProcessTuple implements exec.Operator.
func (j *Join) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	if input != 0 && input != 1 {
		return j.errInput("tuple", input)
	}
	if j.guardsIn[input].Suppress(t) {
		j.suppressedIn++
		return nil
	}
	j.apply(input, t, ctx)
	return nil
}

func (j *Join) errInput(what string, input int) error {
	return fmt.Errorf("op: join %q: %s on unexpected input %d (two-input operator; check plan wiring)", j.Name(), what, input)
}

// apply is ProcessTuple past the input-guard probe: probe the other side's
// entries for partners, oldest first, then keep the tuple for partners yet
// to come.
//
//pace:hotpath
func (j *Join) apply(side int, t stream.Tuple, ctx exec.Context) {
	mine, other := &j.store.sides[side], &j.store.sides[1-side]
	key := t.AppendProjected(j.store.key[:0], mine.cols)
	j.store.key = key
	h := hashKey(key)
	if side == 0 && j.Impatient && j.store.asked.first(h, key) < 0 {
		ts := int64(math.MaxInt64)
		if j.askedTs >= 0 {
			ts = key[j.askedTs].I
		}
		j.store.asked.link(joinEntry{t: stream.Tuple{Values: slices.Clone(key)}, ts: ts, hash: h}, key) //pace:allow-alloc one copy of the key per distinct key asked for
		j.sendImpatient(t, ctx)
	}
	matched := false
	for i := other.first(h, key); i >= 0; i = other.entries[i].next {
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
	ts := j.tsOf(side, t)
	if j.ThriftyWindow != nil && j.ThriftyProbe == side {
		j.countProbe(ts)
	}
	mine.link(joinEntry{t: mine.keep(t), ts: ts, hash: h, matched: matched}, key)
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

// ApplyTupleBatch implements exec.TupleBatchApplier: a symmetric hash join
// has per-tuple probe-and-emit obligations, so the batch path keeps the
// tuple loop but hoists the input-guard probe — one Active() check per run
// instead of one table walk per tuple. Guards only change between runs
// (ProcessFeedback and ProcessPunct never interleave with a batch), so the
// hoisted decision holds for the whole run.
func (j *Join) ApplyTupleBatch(input int, ts []stream.Tuple, ctx exec.Context) error {
	if input != 0 && input != 1 {
		return j.errInput("tuple", input)
	}
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

// tsAttr returns the timestamp attribute of an input's schema, or -1.
func (j *Join) tsAttr(input int) int {
	if input == 0 {
		return j.LeftTs
	}
	return j.RightTs
}

// tsOf returns the timestamp punctuation purges t by.
func (j *Join) tsOf(input int, t stream.Tuple) int64 {
	attr := j.tsAttr(input)
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

// watermark is one input's progress on its timestamp attribute.
type watermark struct {
	set bool
	v   int64 // inclusive progress bound, micros/int domain
	eos bool
}

// tsValue is v as a value of input's timestamp attribute.
func (j *Join) tsValue(input int, v int64) stream.Value {
	sch, attr := j.Left, j.LeftTs
	if input == 1 {
		sch, attr = j.Right, j.RightTs
	}
	return stream.Ordinal(sch.Field(attr).Kind, v)
}

// ProcessPunct implements exec.Operator: timestamp punctuation purges the
// opposite side and may emit output punctuation and thrifty feedback.
func (j *Join) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	if input != 0 && input != 1 {
		return j.errInput("punctuation", input)
	}
	j.Observe(input, e)
	attr, wm, ok := e.Pattern.Progress()
	if !ok || attr != j.tsAttr(input) {
		return nil
	}
	if w := &j.wm[input]; !w.set || wm > w.v {
		w.v, w.set = wm, true
	}
	// No more tuples ≤ wm on this input: the other side's entries at or
	// below can never match again, and a left key that carries its timestamp
	// cannot be seen again.
	j.purgeOpposite(input, wm, ctx)
	if j.ThriftyWindow != nil && j.ThriftyProbe == input {
		j.checkThrifty(wm, ctx)
	}
	j.emitOutputPunct(ctx)
	return nil
}

// purgeOpposite drops what progress to wm on input (math.MaxInt64 at its
// EOS) proves dead: the other side's entries with ts ≤ wm — under LeftOuter,
// unmatched left entries are emitted null-padded first, in arrival order —
// and, for the left input, the asked keys that cannot recur.
func (j *Join) purgeOpposite(input int, wm int64, ctx exec.Context) {
	var victim func(*joinEntry)
	if input == 1 && j.LeftOuter {
		victim = func(e *joinEntry) {
			if !e.matched {
				j.emitOuter(e.t, ctx)
			}
		}
	}
	j.store.sides[1-input].purgeThrough(wm, victim)
	if input == 0 {
		j.store.asked.purgeThrough(wm, nil)
	}
}

// emitOutputPunct asserts progress on the output's timestamp attribute
// (the left ts position) once both inputs have punctuated.
func (j *Join) emitOutputPunct(ctx exec.Context) {
	if j.LeftTs < 0 || j.RightTs < 0 {
		return
	}
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
	j.Observe(core.Output, outPunct)
	ctx.EmitPunct(outPunct)
}

// ProcessEOS implements exec.Operator.
func (j *Join) ProcessEOS(input int, ctx exec.Context) error {
	if input != 0 && input != 1 {
		return j.errInput("EOS", input)
	}
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
		n := j.store.sides[side].removeWhere(func(e *joinEntry) bool { return pp.Matches(e.t) }, nil)
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
		LeftEntries:      len(j.store.sides[0].entries),
		RightEntries:     len(j.store.sides[1].entries),
	}
}
