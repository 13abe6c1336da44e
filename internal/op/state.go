package op

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// errInputCountChanged reports a snapshot whose input/partition fan does
// not match the rebuilt operator.
func errInputCountChanged(kind, name string, got, want int) error {
	return fmt.Errorf("op: %s %q: snapshot carries %d inputs/partitions but the plan has %d (plan drift)",
		kind, name, got, want)
}

// snapshot.Stater implementations for the stateful operators (contract:
// DESIGN.md §6.2). CaptureState runs at the node's barrier-aligned cut on its
// own goroutine and only clones a consistent view — accumulator structs,
// guard lists, drained changelogs — never serializing there; the returned
// Capture.Encode runs on a background goroutine after the barrier releases.
// The phase-1 invariant is that the view must not alias anything the operator
// mutates afterwards: aggGroup/joinEntry structs are copied by value (their
// Tuple/Value contents are immutable once stored; the aggregate's group
// values are copied out of their window's arena, which is reused, and the
// join's entries out of their slab, which is compacted in place), guard
// tables are flattened with snapshot.GuardsView, and map-typed auxiliaries
// are copied.
//
// Aggregate and Join — the operators whose state grows with the data — keep
// a changelog (what changed since the previous capture) in their stores and
// answer CaptureDelta with O(changes) views consumed by ApplyDelta; the other
// operators' state is O(1)-ish in the stream, so they always capture fully.
// Aggregate's and Join's blobs, full and delta, open with a layout marker.
//
// Restore additionally honors the paper's state-purging argument at
// recovery time: any state entry covered by an assumed-feedback guard in
// the cut is dropped during LoadState/ApplyDelta, even when the live
// operator had retained it (e.g. the guard-output-only mode keeps folding
// suppressed groups; recovery is free to apply the stronger exploitation,
// since the feedback's issuer has disclaimed the subset — Definition 1
// permits any response up to full suppression).

var (
	_ snapshot.Stater = (*Aggregate)(nil)
	_ snapshot.Stater = (*Join)(nil)
	_ snapshot.Stater = (*Impute)(nil)
	_ snapshot.Stater = (*Pace)(nil)
	_ snapshot.Stater = (*Merge)(nil)
	_ snapshot.Stater = (*Split)(nil)
	_ snapshot.Stater = (*Duplicate)(nil)
	_ snapshot.Stater = (*Prioritize)(nil)
)

// ---------------------------------------------------------------------------
// Aggregate.
// ---------------------------------------------------------------------------

// aggLayout opens every Aggregate state blob, full or delta. It is negative
// because the layout before it began with an entry count, which never is: a
// blob written by that build is refused, not misparsed.
const aggLayout = -1

// CaptureState implements snapshot.Stater. Phase 1 copies the groups (all,
// or the dirty ones with the watermark and the purge records) out of the
// store; the windows they sat in may close and be reused before phase 2 runs.
func (a *Aggregate) CaptureState(mode snapshot.CaptureMode) (snapshot.Capture, error) {
	delta := mode == snapshot.CaptureDelta && a.store.based
	c := a.store.capture(delta)
	guardsOut := snapshot.GuardsView(a.guardsOut)
	guardsPrefix := snapshot.GuardsView(a.guardsPrefix)
	counters := []int64{a.inTuples, a.outTuples, a.folded, a.inSuppressed,
		a.outSuppressed, a.purged, a.partialsEmitted}
	return snapshot.Capture{
		Delta: delta,
		Encode: func(enc *snapshot.Encoder) error {
			enc.PutInt64(aggLayout)
			if delta {
				enc.PutInt64(c.closedThrough)
				enc.PutInt(len(c.purged))
				for _, p := range c.purged {
					enc.PutInt64(p.wid)
					enc.PutValues(p.key)
				}
			}
			c.encodeGroups(enc)
			snapshot.PutGuardsView(enc, guardsOut)
			snapshot.PutGuardsView(enc, guardsPrefix)
			for _, n := range counters {
				enc.PutInt64(n)
			}
			return nil
		},
	}, nil
}

// encodeGroups writes the captured groups window by window in the order they
// were captured in — slot order for a full capture, dirty-list order for a
// delta — which is canonical (DESIGN.md §10.6): equal histories encode to
// equal bytes, in the live operator and in a twin restored from its chain.
func (c *aggCapture) encodeGroups(enc *snapshot.Encoder) {
	enc.PutInt(len(c.wins))
	at := int32(0)
	for _, cw := range c.wins {
		enc.PutInt64(cw.wid)
		enc.PutInt(cw.n)
		for i := at; i < at+int32(cw.n); i++ {
			g := &c.groups[i]
			enc.PutValues(c.key(i))
			enc.PutInt64(g.count)
			enc.PutFloat64(g.sum)
			enc.PutFloat64(g.min)
			enc.PutFloat64(g.max)
		}
		at += int32(cw.n)
	}
}

// checkLayout reads the layout marker a state blob of the named operator
// opens with and refuses any other than want.
func checkLayout(dec *snapshot.Decoder, kind, name string, want int64) error {
	got := dec.GetInt64()
	if err := dec.Err(); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("op: %s %q: state blob has layout %d, this build reads layout %d (snapshot written by another version of the operator)",
			kind, name, got, want)
	}
	return nil
}

// errGroupWidth reports a snapshot whose groups do not have the operator's
// GroupBy width.
func (a *Aggregate) errGroupWidth(got int) error {
	return fmt.Errorf("op: aggregate %q: groups by %d attributes but the snapshot's groups carry %d (plan drift)",
		a.Name(), len(a.GroupBy), got)
}

// decodeGroups reads what encodeGroups wrote into st, in blob order, and
// returns where each group landed.
func (a *Aggregate) decodeGroups(dec *snapshot.Decoder, st *aggStore) ([]aggRef, error) {
	var refs []aggRef
	nw := dec.GetInt()
	for i := 0; i < nw && dec.Err() == nil; i++ {
		wid := dec.GetInt64()
		n := dec.GetInt()
		for j := 0; j < n && dec.Err() == nil; j++ {
			key := dec.GetValues()
			acc := aggGroup{count: dec.GetInt64(), sum: dec.GetFloat64(), min: dec.GetFloat64(), max: dec.GetFloat64()}
			if dec.Err() != nil {
				break
			}
			if len(key) != st.k {
				return nil, a.errGroupWidth(len(key))
			}
			w, slot := st.restore(wid, key, acc)
			refs = append(refs, aggRef{w, slot})
		}
	}
	return refs, dec.Err()
}

// aggRef names one group of the store.
type aggRef struct {
	w    *aggWindow
	slot int32
}

// loadTail reads the guards and counters every Aggregate blob ends with.
func (a *Aggregate) loadTail(dec *snapshot.Decoder) {
	snapshot.GetGuards(dec, a.guardsOut)
	snapshot.GetGuards(dec, a.guardsPrefix)
	for _, c := range []*int64{&a.inTuples, &a.outTuples, &a.folded, &a.inSuppressed,
		&a.outSuppressed, &a.purged, &a.partialsEmitted} {
		*c = dec.GetInt64()
	}
}

// dropCovered applies assumption-driven state dropping to restored groups:
// guards asserted at the cut cover subsets the consumer disclaimed, so their
// state need not survive recovery. A blob may name a group twice (nothing this
// build writes does): it landed in one slot, which is purged once.
func (a *Aggregate) dropCovered(refs []aggRef) {
	for _, r := range refs {
		if r.w.groups[r.slot].dead {
			continue
		}
		if a.guardsPrefix.Suppress(a.probePrefix(r.w, r.slot)) ||
			a.guardsOut.Suppress(a.probeResult(r.w, r.slot)) {
			a.purged++
			a.store.purge(r.w, r.slot)
		}
	}
}

// LoadState implements snapshot.Stater. The loaded cut is the baseline of the
// restored run's next delta.
func (a *Aggregate) LoadState(dec *snapshot.Decoder) error {
	if err := checkLayout(dec, "aggregate", a.Name(), aggLayout); err != nil {
		return err
	}
	var st aggStore
	st.reset(len(a.GroupBy))
	refs, err := a.decodeGroups(dec, &st)
	if err != nil {
		return err
	}
	a.loadTail(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	a.store = st
	a.dropCovered(refs)
	a.store.rebase()
	return nil
}

// ApplyDelta merges a delta capture: windows through the watermark
// go, then the groups purged one by one, then the upserts land, then the
// cut's guards and counters replace the current ones. The applied cut is the
// new baseline: what applying it did to the store is no change to report.
func (a *Aggregate) ApplyDelta(dec *snapshot.Decoder) error {
	if err := checkLayout(dec, "aggregate", a.Name(), aggLayout); err != nil {
		return err
	}
	closedThrough := dec.GetInt64()
	for w := a.store.first(); dec.Err() == nil && w != nil && w.wid <= closedThrough; w = a.store.first() {
		a.store.closeFirst()
	}
	np := dec.GetInt()
	for i := 0; i < np && dec.Err() == nil; i++ {
		wid, key := dec.GetInt64(), dec.GetValues()
		if dec.Err() != nil {
			break
		}
		if len(key) != a.store.k {
			return a.errGroupWidth(len(key))
		}
		if w, slot := a.store.find(wid, key); w != nil {
			a.store.purge(w, slot)
		}
	}
	refs, err := a.decodeGroups(dec, &a.store)
	if err != nil {
		return err
	}
	a.loadTail(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	a.dropCovered(refs)
	a.store.rebase()
	return nil
}

// ---------------------------------------------------------------------------
// Join.
// ---------------------------------------------------------------------------

// joinLayout opens every Join state blob, full or delta. Like aggLayout it is
// negative because the layout before it began with an entry count.
const joinLayout = -1

// joinCap is the captured view of a Join.
type joinCap struct {
	delta        bool
	sides        [3]joinSideCut // left, right, asked
	wm           [2]watermark
	lastOutWM    int64
	lastOutWMSet bool
	probeCounts  map[int64]int64
	probeDone    int64
	feedbackSeq  int64
	guardsIn     [2][]core.Feedback
	guardsOut    []core.Feedback
	counters     [7]int64
}

// CaptureState implements snapshot.Stater.
func (j *Join) CaptureState(mode snapshot.CaptureMode) (snapshot.Capture, error) {
	v := &joinCap{delta: mode == snapshot.CaptureDelta && j.store.based}
	for i, side := range j.store.all() {
		v.sides[i] = side.capture(v.delta)
	}
	j.store.rebase()
	v.wm = j.wm
	v.lastOutWM, v.lastOutWMSet = j.lastOutWM, j.lastOutWMSet
	v.probeCounts = make(map[int64]int64, len(j.probeCounts))
	for w, c := range j.probeCounts {
		v.probeCounts[w] = c
	}
	v.probeDone = j.probeDone
	v.feedbackSeq = j.feedbackSeq
	v.guardsIn = [2][]core.Feedback{snapshot.GuardsView(j.guardsIn[0]), snapshot.GuardsView(j.guardsIn[1])}
	v.guardsOut = snapshot.GuardsView(j.guardsOut)
	v.counters = [7]int64{j.emitted, j.outerEmitted, j.suppressedIn,
		j.suppressedOut, j.purgedByFeedback, j.thriftySent, j.impatientSent}
	return snapshot.Capture{Delta: v.delta, Encode: v.encode}, nil
}

// encode is phase 2; it sees only the captured view. Per side: the next id,
// in a delta the changelog (watermark, purged ids, matched ids), then the
// entries in arrival order — all of them, or those inserted since the
// baseline.
func (v *joinCap) encode(enc *snapshot.Encoder) error {
	enc.PutInt64(joinLayout)
	for i := range v.sides {
		c := &v.sides[i]
		enc.PutInt64(c.nextID)
		if v.delta {
			enc.PutInt64(c.purgedThrough)
			for _, notes := range [][]joinNote{c.purged, c.matched} {
				enc.PutInt(len(notes))
				for _, n := range notes {
					enc.PutInt64(n.id)
				}
			}
		}
		enc.PutInt(len(c.entries))
		for e := range c.entries {
			e := &c.entries[e]
			enc.PutInt64(e.id)
			enc.PutTuple(e.t)
			enc.PutInt64(e.ts)
			enc.PutBool(e.matched)
		}
	}
	for _, w := range v.wm {
		enc.PutInt64(w.v)
		enc.PutBool(w.set)
		enc.PutBool(w.eos)
	}
	enc.PutInt64(v.lastOutWM)
	enc.PutBool(v.lastOutWMSet)
	wids := make([]int64, 0, len(v.probeCounts))
	for w := range v.probeCounts {
		wids = append(wids, w)
	}
	slices.Sort(wids)
	enc.PutInt(len(wids))
	for _, w := range wids {
		enc.PutInt64(w)
		enc.PutInt64(v.probeCounts[w])
	}
	enc.PutInt64(v.probeDone)
	enc.PutInt64(v.feedbackSeq)
	snapshot.PutGuardsView(enc, v.guardsIn[0])
	snapshot.PutGuardsView(enc, v.guardsIn[1])
	snapshot.PutGuardsView(enc, v.guardsOut)
	for _, c := range v.counters {
		enc.PutInt64(c)
	}
	return nil
}

// LoadState implements snapshot.Stater.
func (j *Join) LoadState(dec *snapshot.Decoder) error {
	return j.restore(dec, false)
}

// ApplyDelta merges a delta capture into the loaded state.
func (j *Join) ApplyDelta(dec *snapshot.Decoder) error {
	return j.restore(dec, true)
}

// restore reads what joinCap.encode wrote and replays it on the store — a
// full blob on an emptied one — then lets the cut's scalars, guards and
// counters replace the current ones and re-applies the §6.3
// assumption-driven dropping: entries the cut's input guards cover go. The
// restored cut is the baseline of the next delta: what replaying it did to
// the store is no change to report.
func (j *Join) restore(dec *snapshot.Decoder, delta bool) error {
	if err := checkLayout(dec, "join", j.Name(), joinLayout); err != nil {
		return err
	}
	var cuts [3]joinSideCut
	for i := range cuts {
		c := &cuts[i]
		c.nextID, c.purgedThrough = dec.GetInt64(), math.MinInt64
		if delta {
			c.purgedThrough = dec.GetInt64()
			for _, notes := range []*[]joinNote{&c.purged, &c.matched} {
				n := dec.GetInt()
				for k := 0; k < n && dec.Err() == nil; k++ {
					*notes = append(*notes, joinNote{id: dec.GetInt64()})
				}
			}
		}
		n := dec.GetInt()
		c.entries = make([]joinEntry, 0, dec.CountHint(n))
		for k := 0; k < n && dec.Err() == nil; k++ {
			c.entries = append(c.entries, joinEntry{id: dec.GetInt64(), t: dec.GetTuple(), ts: dec.GetInt64(), matched: dec.GetBool()})
		}
	}
	var wm [2]watermark
	for i := range wm {
		wm[i] = watermark{v: dec.GetInt64(), set: dec.GetBool(), eos: dec.GetBool()}
	}
	lastOutWM, lastOutWMSet := dec.GetInt64(), dec.GetBool()
	nw := dec.GetInt()
	probeCounts := make(map[int64]int64, dec.CountHint(nw))
	for i := 0; i < nw && dec.Err() == nil; i++ {
		w := dec.GetInt64()
		probeCounts[w] = dec.GetInt64()
	}
	probeDone, feedbackSeq := dec.GetInt64(), dec.GetInt64()
	snapshot.GetGuards(dec, j.guardsIn[0])
	snapshot.GetGuards(dec, j.guardsIn[1])
	snapshot.GetGuards(dec, j.guardsOut)
	var counters [7]int64
	for i := range counters {
		counters[i] = dec.GetInt64()
	}
	if err := dec.Err(); err != nil {
		return err
	}

	if !delta {
		j.store.reset(j.LeftKeys, j.RightKeys)
	}
	for i, side := range j.store.all() {
		side.apply(&cuts[i])
	}
	j.wm, j.lastOutWM, j.lastOutWMSet = wm, lastOutWM, lastOutWMSet
	j.probeCounts, j.probeDone, j.feedbackSeq = probeCounts, probeDone, feedbackSeq
	for i, c := range []*int64{&j.emitted, &j.outerEmitted, &j.suppressedIn,
		&j.suppressedOut, &j.purgedByFeedback, &j.thriftySent, &j.impatientSent} {
		*c = counters[i]
	}
	for side, guards := range j.guardsIn {
		if guards.Active() > 0 {
			n := j.store.sides[side].removeWhere(func(e *joinEntry) bool { return guards.Suppress(e.t) }, nil)
			j.purgedByFeedback += int64(n)
		}
	}
	j.store.rebase()
	return nil
}

// ---------------------------------------------------------------------------
// Impute.
// ---------------------------------------------------------------------------

// CaptureState implements snapshot.Stater: the guard table is the whole
// point — losing it on crash would re-expose the archive to lookups the
// feedback already disclaimed. The state is O(guards), so capture is
// always full.
func (im *Impute) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	guards := snapshot.GuardsView(im.guards)
	imputed, skipped, passed := im.imputed, im.skipped, im.passed
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		snapshot.PutGuardsView(enc, guards)
		enc.PutInt64(imputed)
		enc.PutInt64(skipped)
		enc.PutInt64(passed)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (im *Impute) LoadState(dec *snapshot.Decoder) error {
	snapshot.GetGuards(dec, im.guards)
	im.imputed = dec.GetInt64()
	im.skipped = dec.GetInt64()
	im.passed = dec.GetInt64()
	return dec.Err()
}

// ---------------------------------------------------------------------------
// Fan-in alignment (Merge and Pace).
// ---------------------------------------------------------------------------

// capture clones the alignment state. Patterns are immutable; the slices
// holding them are copied.
func (al *aligner) capture() *aligner {
	v := &aligner{
		schema:   al.schema,
		ins:      make([]alignInput, len(al.ins)),
		wmOut:    slices.Clone(al.wmOut),
		wmOutSet: slices.Clone(al.wmOutSet),
		pending:  slices.Clone(al.pending),
	}
	for i := range al.ins {
		in := &al.ins[i]
		v.ins[i] = alignInput{
			eos:      in.eos,
			wm:       slices.Clone(in.wm),
			wmSet:    slices.Clone(in.wmSet),
			asserted: slices.Clone(in.asserted),
		}
	}
	return v
}

// encode writes the alignment state: per-input frontiers and asserted
// patterns, the already-asserted frontier, and the pending list. All of it
// must survive recovery, otherwise a restored fan-in could re-emit
// punctuation it already promised (downstream would purge twice, harmless)
// or forward a pattern a lagging input has not re-covered (unsound).
func (al *aligner) encode(enc *snapshot.Encoder) {
	putFrontier := func(wm []int64, set []bool) {
		for a := range wm {
			enc.PutInt64(wm[a])
			enc.PutBool(set[a])
		}
	}
	putPatterns := func(ps []punct.Pattern) {
		enc.PutInt(len(ps))
		for _, p := range ps {
			enc.PutPattern(p)
		}
	}
	enc.PutInt(len(al.ins))
	for i := range al.ins {
		in := &al.ins[i]
		enc.PutBool(in.eos)
		putFrontier(in.wm, in.wmSet)
		putPatterns(in.asserted)
	}
	putFrontier(al.wmOut, al.wmOutSet)
	putPatterns(al.pending)
}

// load reads what encode wrote into an aligner of the same fan-in; kind and
// name identify the operator in the error for one of another.
func (al *aligner) load(dec *snapshot.Decoder, kind, name string) error {
	arity := al.schema.Arity()
	getFrontier := func(wm []int64, set []bool) {
		for a := range wm {
			wm[a] = dec.GetInt64()
			set[a] = dec.GetBool()
		}
	}
	getPatterns := func() []punct.Pattern {
		var ps []punct.Pattern
		for n := dec.GetInt(); n > 0 && dec.Err() == nil; n-- {
			ps = append(ps, dec.GetPatternArity(arity))
		}
		return ps
	}
	n := dec.GetInt()
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(al.ins) {
		return errInputCountChanged(kind, name, n, len(al.ins))
	}
	for i := range al.ins {
		in := &al.ins[i]
		in.eos = dec.GetBool()
		getFrontier(in.wm, in.wmSet)
		in.asserted = getPatterns()
	}
	getFrontier(al.wmOut, al.wmOutSet)
	al.pending = getPatterns()
	return dec.Err()
}

// ---------------------------------------------------------------------------
// Pace.
// ---------------------------------------------------------------------------

// paceLayout opens every Pace state blob. It is negative because the layout
// before it began with the high watermark, a timestamp, which no source in
// the tree makes negative: a blob written by that build is refused, not
// misparsed.
const paceLayout = -1

// CaptureState implements snapshot.Stater: the high watermark and
// feedback cutoff are what make a restored PACE keep its promises — a
// fresh one would re-admit tuples the old instance's feedback already
// disclaimed — and the alignment state is what keeps its punctuation sound.
func (p *Pace) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	hw, hwSet, lastCutoff, cutoffSet := p.hw, p.hwSet, p.lastCutoff, p.cutoffSet
	seq, sent := p.feedbackSeq, p.feedbackSent
	align := p.align.capture()
	perIn := slices.Clone(p.perIn)
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(paceLayout)
		enc.PutInt64(hw)
		enc.PutBool(hwSet)
		enc.PutInt64(lastCutoff)
		enc.PutBool(cutoffSet)
		enc.PutInt64(seq)
		enc.PutInt64(sent)
		align.encode(enc)
		for _, st := range perIn {
			enc.PutInt64(st.Passed)
			enc.PutInt64(st.Dropped)
		}
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (p *Pace) LoadState(dec *snapshot.Decoder) error {
	if err := checkLayout(dec, "pace", p.Name(), paceLayout); err != nil {
		return err
	}
	p.hw = dec.GetInt64()
	p.hwSet = dec.GetBool()
	p.lastCutoff = dec.GetInt64()
	p.cutoffSet = dec.GetBool()
	p.feedbackSeq = dec.GetInt64()
	p.feedbackSent = dec.GetInt64()
	if err := p.align.load(dec, "pace", p.Name()); err != nil {
		return err
	}
	for i := range p.perIn {
		p.perIn[i].Passed = dec.GetInt64()
		p.perIn[i].Dropped = dec.GetInt64()
	}
	return dec.Err()
}

// ---------------------------------------------------------------------------
// Merge.
// ---------------------------------------------------------------------------

// CaptureState implements snapshot.Stater: the alignment state, the guard
// table and the counters.
func (m *Merge) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	align := m.align.capture()
	guards := snapshot.GuardsView(m.guards)
	counters := [4]int64{m.in, m.out, m.suppressed, m.aligned}
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		align.encode(enc)
		snapshot.PutGuardsView(enc, guards)
		for _, c := range counters {
			enc.PutInt64(c)
		}
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (m *Merge) LoadState(dec *snapshot.Decoder) error {
	if err := m.align.load(dec, "merge", m.Name()); err != nil {
		return err
	}
	snapshot.GetGuards(dec, m.guards)
	for _, c := range []*int64{&m.in, &m.out, &m.suppressed, &m.aligned} {
		*c = dec.GetInt64()
	}
	return dec.Err()
}

// ---------------------------------------------------------------------------
// Split.
// ---------------------------------------------------------------------------

// splitCap is the captured view of a Split.
type splitCap struct {
	perOut       [][]core.Feedback
	perOutDemand [][]core.Feedback
	propagated   []string
	rr           int
	in           int64
	suppressed   int64
	outPer       []int64
}

// CaptureState implements snapshot.Stater: per-partition guards
// (feedback each partition has asserted), the already-relayed set, and the
// round-robin cursor — the cursor matters for keyless splits, where a
// restored run must continue the same routing sequence to stay canonically
// identical.
func (s *Split) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	v := &splitCap{
		perOut:       make([][]core.Feedback, s.n()),
		perOutDemand: make([][]core.Feedback, s.n()),
		propagated:   s.Relayed(),
		rr:           s.rr,
		in:           s.in,
		suppressed:   s.suppressed,
		outPer:       append([]int64(nil), s.outPer...),
	}
	for i := 0; i < s.n(); i++ {
		v.perOut[i] = snapshot.GuardsView(s.perOut[i])
		v.perOutDemand[i] = snapshot.GuardsView(s.perOutDemand[i])
	}
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt(len(v.perOut))
		for i := range v.perOut {
			snapshot.PutGuardsView(enc, v.perOut[i])
			snapshot.PutGuardsView(enc, v.perOutDemand[i])
		}
		enc.PutInt(len(v.propagated))
		for _, k := range v.propagated {
			enc.PutString(k)
		}
		enc.PutInt(v.rr)
		enc.PutInt64(v.in)
		enc.PutInt64(v.suppressed)
		for _, c := range v.outPer {
			enc.PutInt64(c)
		}
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *Split) LoadState(dec *snapshot.Decoder) error {
	n := dec.GetInt()
	if n != s.n() {
		if err := dec.Err(); err != nil {
			return err
		}
		return errInputCountChanged("split", s.Name(), n, s.n())
	}
	for i := 0; i < s.n(); i++ {
		snapshot.GetGuards(dec, s.perOut[i])
		snapshot.GetGuards(dec, s.perOutDemand[i])
	}
	s.RestoreRelayed(getStrings(dec))
	s.rr = dec.GetInt()
	s.in = dec.GetInt64()
	s.suppressed = dec.GetInt64()
	for i := range s.outPer {
		s.outPer[i] = dec.GetInt64()
	}
	return dec.Err()
}

// ---------------------------------------------------------------------------
// Duplicate.
// ---------------------------------------------------------------------------

// dupSigil opens every key of a Duplicate's relayed set — it relays assumed
// feedback only — and its blob has always recorded the keys without it.
var dupSigil = core.Assumed.Sigil()

// getStrings reads a counted list of strings.
func getStrings(dec *snapshot.Decoder) []string {
	n := dec.GetInt()
	ss := make([]string, 0, dec.CountHint(n))
	for i := 0; i < n && dec.Err() == nil; i++ {
		ss = append(ss, dec.GetString())
	}
	return ss
}

// dupCap is the captured view of a Duplicate.
type dupCap struct {
	perOut     [][]core.Feedback
	propagated []string
	counters   [3]int64
}

// CaptureState implements snapshot.Stater. Found by the staterstate
// analyzer: Duplicate accumulated per-consumer guard tables and the
// already-relayed pattern set with no Stater, so a restored instance
// forgot every assertion its consumers had made — it stopped exploiting
// unanimously-asserted feedback (safe but wasteful) and, worse, could
// relay the same pattern upstream a second time. The state mirrors
// Split's: per-output guards, the propagated set, and counters.
func (d *Duplicate) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	v := &dupCap{
		perOut:     make([][]core.Feedback, d.n()),
		propagated: d.Relayed(),
		counters:   [3]int64{d.in, d.out, d.suppressed},
	}
	for i := 0; i < d.n(); i++ {
		v.perOut[i] = snapshot.GuardsView(d.perOut[i])
	}
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt(len(v.perOut))
		for i := range v.perOut {
			snapshot.PutGuardsView(enc, v.perOut[i])
		}
		enc.PutInt(len(v.propagated))
		for _, k := range v.propagated {
			enc.PutString(strings.TrimPrefix(k, dupSigil))
		}
		for _, c := range v.counters {
			enc.PutInt64(c)
		}
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (d *Duplicate) LoadState(dec *snapshot.Decoder) error {
	n := dec.GetInt()
	if n != d.n() {
		if err := dec.Err(); err != nil {
			return err
		}
		return errInputCountChanged("duplicate", d.Name(), n, d.n())
	}
	for i := 0; i < d.n(); i++ {
		snapshot.GetGuards(dec, d.perOut[i])
	}
	keys := getStrings(dec)
	for i := range keys {
		keys[i] = dupSigil + keys[i]
	}
	d.RestoreRelayed(keys)
	for _, c := range []*int64{&d.in, &d.out, &d.suppressed} {
		*c = dec.GetInt64()
	}
	return dec.Err()
}

// ---------------------------------------------------------------------------
// Prioritize.
// ---------------------------------------------------------------------------

// prioCap is the captured view of a Prioritize.
type prioCap struct {
	pending  []stream.Tuple
	desired  []punct.Pattern
	guards   []core.Feedback
	counters [4]int64
}

// CaptureState implements snapshot.Stater. Found by the staterstate
// analyzer: the reorder buffer holds tuples already consumed from
// upstream but not yet emitted, so unlike the engine's genuinely
// stateless pass-throughs a restore without it drops rows from the
// result. Desired patterns and assumed guards ride along (the punctuation
// scheme does not: it only expires desired patterns, and rebuilds from
// post-restore punctuation).
func (p *Prioritize) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	v := &prioCap{
		pending:  append([]stream.Tuple(nil), p.pending...),
		desired:  append([]punct.Pattern(nil), p.desired...),
		guards:   snapshot.GuardsView(p.guards),
		counters: [4]int64{p.in, p.out, p.promoted, p.dropped},
	}
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt(len(v.pending))
		for _, t := range v.pending {
			enc.PutTuple(t)
		}
		enc.PutInt(len(v.desired))
		for _, d := range v.desired {
			enc.PutPattern(d)
		}
		snapshot.PutGuardsView(enc, v.guards)
		for _, c := range v.counters {
			enc.PutInt64(c)
		}
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (p *Prioritize) LoadState(dec *snapshot.Decoder) error {
	n := dec.GetInt()
	p.pending = make([]stream.Tuple, 0, dec.CountHint(n))
	for i := 0; i < n && dec.Err() == nil; i++ {
		p.pending = append(p.pending, dec.GetTuple())
	}
	nd := dec.GetInt()
	p.desired = nil
	for i := 0; i < nd && dec.Err() == nil; i++ {
		p.desired = append(p.desired, dec.GetPatternArity(p.Schema.Arity()))
	}
	snapshot.GetGuards(dec, p.guards)
	for _, c := range []*int64{&p.in, &p.out, &p.promoted, &p.dropped} {
		*c = dec.GetInt64()
	}
	return dec.Err()
}
