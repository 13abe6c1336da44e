package op

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// flushCtx records what an aggregate emits.
type flushCtx struct {
	discardCtx
	tuples []stream.Tuple
}

func (c *flushCtx) Emit(t stream.Tuple)         { c.tuples = append(c.tuples, t) }
func (c *flushCtx) EmitBatch(ts []stream.Tuple) { c.tuples = append(c.tuples, ts...) }

// captureBlob takes a capture of st in the given mode and encodes it.
func captureBlob(t testing.TB, st snapshot.Stater, mode snapshot.CaptureMode) []byte {
	t.Helper()
	c, err := st.CaptureState(mode)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCap(t, c)
}

// aggModel is the aggregate's state written plainly — one map keyed
// "wid;key", as the operator itself kept it before it had a store, each group
// stamped with when it was inserted — and its feedback, flush and restore
// semantics over that map. A window's groups leave in insertion order; a
// group deleted and inserted again is a new group, at the end. Tests drive it
// beside the operator and compare. It reads the operator's configuration and
// guard tables (guards are not what is under test) and nothing of its state.
type aggModel struct {
	a       *Aggregate
	state   map[string]*modelGroup
	touched map[string]int64 // keys folded into since the last cut, and when first
	tick    int64            // the stamps' clock; it only moves forward
}

type modelGroup struct {
	wid      int64
	vals     []stream.Value
	count    int64
	sum      float64
	min, max float64
	// born names the insertion, for good: a cut and a restore carry it along.
	// pos orders the group among its window's in the operator the model
	// stands beside — born, until a restore places the group anew.
	born, pos int64
}

func newAggModel(a *Aggregate) *aggModel {
	return &aggModel{a: a, state: map[string]*modelGroup{}, touched: map[string]int64{}}
}

func (m *aggModel) stamp() int64 {
	m.tick++
	return m.tick
}

func modelKey(wid int64, vals []stream.Value) string {
	cols := make([]int, len(vals))
	for i := range cols {
		cols[i] = i
	}
	return strconv.FormatInt(wid, 10) + ";" + stream.NewTuple(vals...).Key(cols)
}

func (m *aggModel) value(g *modelGroup) float64 {
	switch m.a.Kind {
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
	}
	return g.min
}

// prefix and result are a group's output tuple without and with its value.
func (m *aggModel) prefix(g *modelGroup) stream.Tuple {
	vals := append([]stream.Value(nil), g.vals...)
	return stream.NewTuple(append(vals, m.a.wstartValue(g.wid), stream.Null)...)
}

func (m *aggModel) result(g *modelGroup) stream.Tuple {
	t := m.prefix(g)
	t.Values[len(t.Values)-1] = stream.Float(m.value(g))
	return t
}

func matchesAny(pats []punct.Pattern, t stream.Tuple) bool {
	for _, p := range pats {
		if p.Matches(t) {
			return true
		}
	}
	return false
}

func guardPatterns(g *core.GuardTable) []punct.Pattern {
	var ps []punct.Pattern
	for _, gd := range g.Guards() {
		ps = append(ps, gd.Pattern)
	}
	return ps
}

// fold is ProcessTuple; call it before the operator's (same guards either
// way: a tuple installs none).
func (m *aggModel) fold(t stream.Tuple) {
	a := m.a
	lo, hi := a.Window.WindowsOf(t.At(a.TsAttr).I)
	vals := t.Project(a.GroupBy).Values
	for wid := lo; wid <= hi; wid++ {
		g := &modelGroup{wid: wid, vals: vals, min: math.Inf(1), max: math.Inf(-1)}
		if a.Mode == FeedbackExploit && matchesAny(guardPatterns(a.guardsPrefix), m.prefix(g)) {
			continue
		}
		k := modelKey(wid, vals)
		if old := m.state[k]; old != nil {
			g = old
			if _, ok := m.touched[k]; !ok {
				m.touched[k] = m.stamp()
			}
		} else {
			m.state[k] = g
			g.born = m.stamp()
			g.pos, m.touched[k] = g.born, g.born
		}
		g.count++
		if a.ValAttr >= 0 && !t.At(a.ValAttr).IsNull() {
			f := t.At(a.ValAttr).AsFloat()
			g.sum += f
			g.min, g.max = min(g.min, f), max(g.max, f)
		}
	}
}

// feedback is the state half of ProcessFeedback for assumed feedback: purge
// what Table 1 says to purge. Call it before the operator's.
func (m *aggModel) feedback(f core.Feedback) (purged int) {
	a := m.a
	if f.Intent != core.Assumed || a.Mode != FeedbackExploit {
		return 0
	}
	shape := core.ClassifyAggPattern(f.Pattern, a.groupOutIdx, a.valueIdx)
	plan := core.AggCharacterization(a.Kind, shape, f.Pattern, a.attrMap, a.NonNegative)
	if !slices.ContainsFunc(plan.Actions, func(act core.Action) bool {
		return act == core.ActPurgeState || act == core.ActCloseWindows
	}) {
		return 0
	}
	for k, g := range m.state {
		probe := m.result(g)
		if shape == core.AggShapeGroup {
			probe = m.prefix(g)
		} else if shape != core.AggShapeValueUp && shape != core.AggShapeValueDown {
			continue
		}
		if f.Pattern.Matches(probe) {
			delete(m.state, k)
			purged++
		}
	}
	return purged
}

// flush is what a punctuation closing windows through lastFull must emit —
// every entry with wid ≤ lastFull, windows in wid order and each window's
// groups in insertion order, as result tuples, less those an output guard
// covers — and removes those entries.
func (m *aggModel) flush(lastFull int64) []stream.Tuple {
	var due []*modelGroup
	for k, g := range m.state {
		if g.wid <= lastFull {
			due = append(due, g)
			delete(m.state, k)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].wid != due[j].wid {
			return due[i].wid < due[j].wid
		}
		return due[i].pos < due[j].pos
	})
	guards := guardPatterns(m.a.guardsOut)
	var out []stream.Tuple
	for _, g := range due {
		if t := m.result(g); m.a.Mode == FeedbackIgnore || !matchesAny(guards, t) {
			out = append(out, t)
		}
	}
	return out
}

// modelCut is what the model keeps of one capture: the state, the keys
// folded into since the previous one (and when first), and the guards in
// force.
type modelCut struct {
	state       map[string]modelGroup
	touched     map[string]int64
	out, prefix []punct.Pattern
}

// cut is CaptureState.
func (m *aggModel) cut() modelCut {
	c := modelCut{state: map[string]modelGroup{}, touched: m.touched,
		out: guardPatterns(m.a.guardsOut), prefix: guardPatterns(m.a.guardsPrefix)}
	for k, g := range m.state {
		c.state[k] = *g
	}
	m.touched = map[string]int64{}
	return c
}

// restore makes the model hold what twin must hold after loading cuts[0] and
// applying the rest as deltas. A blob carries groups in an order — the base
// all of the cut's by position, a delta the folded-into ones by first touch —
// and the twin replays it: a group it holds from the same insertion is set in
// place, any other is inserted at the end, and then those the cut's guards
// cover are deleted (DESIGN.md §6.3). What a later cut no longer has, or has
// from another insertion, is gone: its window closed or feedback purged it.
// It returns how many groups the guards deleted on the way.
func (m *aggModel) restore(twin *Aggregate, cuts []modelCut) (dropped int) {
	m.a = twin
	held := map[string]*modelGroup{}
	for i, c := range cuts {
		next := map[string]*modelGroup{}
		var carried []string
		for k, g := range c.state {
			if _, touched := c.touched[k]; i == 0 || touched {
				carried = append(carried, k)
			} else if h := held[k]; h != nil && h.born == g.born {
				next[k] = h
			}
		}
		sort.Slice(carried, func(x, y int) bool {
			if i == 0 {
				return c.state[carried[x]].pos < c.state[carried[y]].pos
			}
			return c.touched[carried[x]] < c.touched[carried[y]]
		})
		for _, k := range carried {
			g := c.state[k]
			if h := held[k]; h != nil && h.born == g.born {
				g.pos = h.pos
			} else {
				g.pos = m.stamp()
			}
			if matchesAny(c.prefix, m.prefix(&g)) || matchesAny(c.out, m.result(&g)) {
				dropped++
			} else {
				next[k] = &g
			}
		}
		held = next
	}
	m.state, m.touched = held, map[string]int64{}
	return dropped
}

// check compares the operator's store with the model, group by group.
func (m *aggModel) check(t *testing.T, when string) {
	t.Helper()
	n := 0
	for w, slot := range m.a.store.each {
		n++
		k := modelKey(w.wid, w.key(slot))
		want, got := m.state[k], w.groups[slot]
		if want == nil {
			t.Fatalf("%s: the operator holds %q, the model does not", when, k)
		}
		if got.count != want.count || got.sum != want.sum || got.min != want.min || got.max != want.max {
			t.Fatalf("%s: %q is %+v, the model has %+v", when, k, got, *want)
		}
	}
	if n != len(m.state) || n != m.a.Stats().OpenGroups {
		t.Fatalf("%s: the operator holds %d groups (OpenGroups %d), the model %d", when, n, m.a.Stats().OpenGroups, len(m.state))
	}
}

// revivedSlots counts the operator's tombstones whose group lives again in a
// later slot of the same window.
func revivedSlots(a *Aggregate) (n int) {
	for _, w := range a.store.wins {
		for slot := range w.groups {
			if w.groups[slot].dead {
				if _, live := a.store.find(w.wid, w.key(int32(slot))); live >= 0 {
					n++
				}
			}
		}
	}
	return n
}

// TestAggregateFlushEqualsReference drives random streams — tumbling and
// sliding windows, punctuation at random cadences (most closing nothing),
// tuples for windows already flushed, group- and value-shape feedback purges
// inside open windows, and captures chained full→delta→delta and restored
// into a fresh twin at any length — through the operator and the plain-map
// model side by side. Every punctuation's output must be the model's, tuple
// for tuple in the model's order, and after every event the store must hold
// exactly the model's groups. The order is canonical: a twin that dropped
// nothing on the way in (§6.3) encodes a full capture to the bytes the
// operator it was restored from does, and goes on as the operator under test.
func TestAggregateFlushEqualsReference(t *testing.T) {
	const slide = int64(1_000_000)
	// Coverage: results emitted, results for a window flushed before,
	// punctuations that closed nothing over open state, groups purged by
	// feedback, restores of a full→delta→delta chain, and deltas taken while
	// a window at or below the close watermark was open again (re-opened
	// before the capture) or a window closed before the previous capture was
	// (re-opened after it), twins whose full capture was compared with their
	// original's, and tombstones whose group came back in a later slot.
	var flushed, late, idle, purged, chains3, reopenedBefore, reopenedAfter, sameBytes, revived int
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := window.Tumbling(slide)
		if rng.Intn(2) == 0 {
			spec = window.Sliding(int64(2+rng.Intn(2))*slide, slide)
		}
		kind := []core.AggKind{core.AggMax, core.AggCount, core.AggAvg}[rng.Intn(3)]
		rec := &flushCtx{}
		build := func() *Aggregate {
			a := &Aggregate{In: trafficSchema, Kind: kind, TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
				Window: spec, Mode: FeedbackExploit}
			if err := a.Open(rec); err != nil {
				t.Fatal(err)
			}
			return a
		}
		a := build()
		m := newAggModel(a)
		var wm int64
		var chain [][]byte // a full capture and the deltas since
		var cuts []modelCut
		prevFull := int64(-1)
		for ev := 0; ev < 160; ev++ {
			when := fmt.Sprintf("seed %d event %d", seed, ev)
			switch r := rng.Intn(20); {
			case r < 11: // a tuple, sometimes for a window already flushed
				ts := wm + int64(rng.Intn(int(5*slide))) - 2*slide
				if ts < 0 {
					ts = 0
				}
				tu := traffic(int64(rng.Intn(6)), 0, ts, float64(rng.Intn(100)))
				m.fold(tu)
				if err := a.ProcessTuple(0, tu, rec); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			case r < 16: // punctuation; small steps close nothing
				wm += int64(rng.Intn(int(slide))) * int64(rng.Intn(3)) / 2
				lastFull := spec.LastFullWindow(wm)
				for _, g := range m.state {
					if g.wid <= prevFull {
						late++
					}
				}
				open := len(m.state)
				want := m.flush(lastFull)
				if len(want) == 0 && open > 0 {
					idle++
				}
				prevFull = max(prevFull, lastFull)
				rec.tuples = rec.tuples[:0]
				if err := a.ProcessPunct(0, tsPunct(wm), rec); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if len(want) != len(rec.tuples) || (len(want) > 0 && !reflect.DeepEqual(want, rec.tuples)) {
					t.Fatalf("%s: punctuation ts ≤ %d (windows through %d) emitted\n  %v\nwant\n  %v",
						when, wm, lastFull, rec.tuples, want)
				}
				flushed += len(want)
			case r < 18: // feedback: a segment (group shape), or values from a bound up (purges on the monotone aggregates)
				f := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(int64(rng.Intn(6))))))
				if r == 17 {
					f = core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(float64(1+rng.Intn(90))))))
				}
				purged += m.feedback(f)
				if err := a.ProcessFeedback(0, f, rec); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			default: // capture: full, then deltas; restore the chain into a fresh twin at any length
				mode := snapshot.CaptureFull
				if len(chain) > 0 {
					mode = snapshot.CaptureDelta
					if w := a.store.first(); w != nil && w.wid <= a.store.closedThrough {
						reopenedBefore++
					} else if w != nil && w.wid <= prevFull {
						reopenedAfter++
					}
				}
				chain = append(chain, captureBlob(t, a, mode))
				cuts = append(cuts, m.cut())
				if len(chain) == 3 || rng.Intn(2) == 0 {
					twin := build()
					applyChain(t, twin, chain[0], chain[1:]...)
					if m.restore(twin, cuts) == 0 { // no cut's guards covered a group it carried
						sameBytes++
						if !bytes.Equal(captureBlob(t, twin, snapshot.CaptureFull), captureBlob(t, a, snapshot.CaptureFull)) {
							t.Fatalf("%s: a twin restored from %d blobs encodes a full capture that differs from its original's", when, len(chain))
						}
					}
					a = twin
				}
				if len(chain) == 3 {
					chains3++
					chain, cuts = nil, nil
				}
			}
			m.check(t, when)
			revived += revivedSlots(a)
		}
		// EOS flushes whatever is left, in the same order.
		want := m.flush(1 << 62)
		rec.tuples = rec.tuples[:0]
		if err := a.ProcessEOS(0, rec); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(rec.tuples) || (len(want) > 0 && !reflect.DeepEqual(want, rec.tuples)) {
			t.Fatalf("seed %d: EOS emitted %v, want %v", seed, rec.tuples, want)
		}
		m.check(t, fmt.Sprintf("seed %d after EOS", seed))
	}
	if flushed == 0 || late == 0 || idle == 0 || purged == 0 || chains3 == 0 || reopenedBefore == 0 || reopenedAfter == 0 || sameBytes == 0 || revived == 0 {
		t.Fatalf("scripts covered %d results, %d of them late, %d idle punctuations, %d purged groups, %d three-blob chains, %d/%d deltas over a window re-opened before/after the previous capture, %d twins compared byte for byte, %d events over a revived tombstone; all must occur",
			flushed, late, idle, purged, chains3, reopenedBefore, reopenedAfter, sameBytes, revived)
	}
	t.Logf("%d results, %d late, %d idle punctuations, %d purged groups, %d three-blob chains, %d/%d re-opened windows in deltas, %d twins compared byte for byte, %d events over a revived tombstone",
		flushed, late, idle, purged, chains3, reopenedBefore, reopenedAfter, sameBytes, revived)
}

// TestAggregateApplyDeltaReopensFlush: a delta can bring in a window older
// than any the operator holds; it must land at the front of the open windows,
// where the next punctuation looks for what is due, not be skipped as a window
// already closed.
func TestAggregateApplyDeltaReopensFlush(t *testing.T) {
	const second = int64(1_000_000)
	build := func() *Aggregate {
		return &Aggregate{In: trafficSchema, Kind: core.AggCount, TsAttr: 2, ValAttr: -1, GroupBy: []int{0},
			Window: window.Tumbling(second), Mode: FeedbackExploit}
	}
	rec := &flushCtx{}
	a := build()
	if err := a.Open(rec); err != nil {
		t.Fatal(err)
	}
	_ = a.ProcessTuple(0, traffic(1, 0, 5*second+1, 50), rec) // window 5
	base := captureBlob(t, a, snapshot.CaptureFull)
	_ = a.ProcessTuple(0, traffic(1, 0, 2*second+1, 50), rec) // window 2, late
	delta := captureBlob(t, a, snapshot.CaptureDelta)

	twin := build()
	if err := twin.Open(rec); err != nil {
		t.Fatal(err)
	}
	applyChain(t, twin, base)
	if err := twin.ProcessPunct(0, tsPunct(second), rec); err != nil { // nothing due: 5 is the smallest open window
		t.Fatal(err)
	}
	if err := twin.ApplyDelta(snapshot.NewDecoder(delta)); err != nil {
		t.Fatal(err)
	}
	if err := twin.ProcessPunct(0, tsPunct(3*second), rec); err != nil { // closes window 2
		t.Fatal(err)
	}
	want := []stream.Tuple{stream.NewTuple(stream.Int(1), stream.TimeMicros(2*second), stream.Float(1))}
	if !reflect.DeepEqual(rec.tuples, want) {
		t.Fatalf("after the delta, the flush through window 2 emitted %v, want %v", rec.tuples, want)
	}
}

// TestAggregateTombstoneOrderCanonical: a window's order must be the same in
// the operator and in every twin restored from its captures, or equal
// histories stop encoding to equal bytes and a recovered run stops repeating
// the crashed one's output. The one history where insertion order and restore
// order could part is a group purged, captured over while it is dead, and
// folded into again: a capture does not carry the dead slot, so a twin puts
// the returning group at the end — and so must the operator (a purged slot is
// a tombstone; reviving it in place fails here). The operator, a twin loaded
// from the full capture taken while the group was dead and fed the same
// tuples, a twin of that capture plus the delta after it, and a twin of a
// full→delta→delta chain that carries the purge as a record must all encode
// the same full capture and flush the same sequence.
func TestAggregateTombstoneOrderCanonical(t *testing.T) {
	rec := &flushCtx{}
	build := func() *Aggregate {
		a := &Aggregate{In: trafficSchema, Kind: core.AggCount, TsAttr: 2, ValAttr: -1, GroupBy: []int{0},
			Window: window.Tumbling(minute), Mode: FeedbackExploit}
		if err := a.Open(rec); err != nil {
			t.Fatal(err)
		}
		return a
	}
	fold := func(a *Aggregate, segs ...int64) {
		for _, seg := range segs {
			if err := a.ProcessTuple(0, traffic(seg, 0, 1, 50), rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// history drives an operator through: segments 5, 2, 8 arrive; a capture;
	// 2 is purged with no input guard left behind (as §6.3's drop at restore
	// purges); a capture while it is dead; 2 comes back, then 6 is new; a
	// capture. It returns the operator and the three blobs.
	history := func(second snapshot.CaptureMode) (*Aggregate, [3][]byte) {
		var blobs [3][]byte
		a := build()
		fold(a, 5, 2, 8)
		blobs[0] = captureBlob(t, a, snapshot.CaptureFull)
		a.Purge(core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(2)))), core.ResponsePlan{}) // the pins it returns are dropped
		if a.Stats().OpenGroups != 2 {
			t.Fatalf("the purge left %d groups, want 2", a.Stats().OpenGroups)
		}
		blobs[1] = captureBlob(t, a, second)
		fold(a, 2, 6)
		blobs[2] = captureBlob(t, a, snapshot.CaptureDelta)
		return a, blobs
	}
	live, b := history(snapshot.CaptureFull)
	fromFull := build()
	applyChain(t, fromFull, b[1])
	fold(fromFull, 2, 6)
	fromDelta := build()
	applyChain(t, fromDelta, b[1], b[2])
	_, c := history(snapshot.CaptureDelta)
	fromChain := build()
	applyChain(t, fromChain, c[0], c[1], c[2])

	var wantBytes []byte
	var wantOut []stream.Tuple
	for i, a := range []*Aggregate{live, fromFull, fromDelta, fromChain} {
		name := []string{"the operator", "the twin of the full capture", "the twin of full+delta", "the twin of full+delta+delta"}[i]
		blob := captureBlob(t, a, snapshot.CaptureFull)
		rec.tuples = nil
		if err := a.ProcessEOS(0, rec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantBytes, wantOut = blob, rec.tuples
			var segs []int64
			for _, tu := range wantOut {
				segs = append(segs, tu.At(0).AsInt())
			}
			if !reflect.DeepEqual(segs, []int64{5, 8, 2, 6}) {
				t.Fatalf("the operator flushed segments %v, want [5 8 2 6]: the returning group goes to the end", segs)
			}
			continue
		}
		if !bytes.Equal(blob, wantBytes) {
			t.Errorf("%s encodes a full capture that differs from the operator's", name)
		}
		if !reflect.DeepEqual(rec.tuples, wantOut) {
			t.Errorf("%s flushed %v, the operator %v", name, rec.tuples, wantOut)
		}
	}
}

// parentFull and parentDelta are a full capture and the delta after it as the
// commit before the flush stopped sorting wrote them (d519f0b: minute AVG by
// segment; segments 9, 16, 3, 300 and 16 again into window 0, then 9 and 3
// into window 1, the full capture, then 7, 16 and 1 into window 0) — each
// window's groups in the order of their keys' text encoding: 16, 300, 3, 9.
const (
	parentFull  = "01040008020120040240518000000000000240340000000000000240490000000000000201d804020240440000000000000240440000000000000240440000000000000201060202403e00000000000002403e00000000000002403e000000000000020112020240240000000000000240240000000000000240240000000000000204020106020240540000000000000240540000000000000240540000000000000201120202405180000000000002405180000000000002405180000000000000000e000e00000000"
	parentDelta = "010100020006020120060240654000000000000240340000000000000240590000000000000201020202405b80000000000002405b80000000000002405b80000000000002010e02024056800000000000024056800000000000024056800000000000000014001400000000"
)

// TestAggregateLoadsKeySortedBlob: order inside a window was never part of
// the blob's format, so blobs written in key order by the build before this
// one load as they are: every group and its accumulators, in the order the
// blob lists them, the delta's new groups after them.
func TestAggregateLoadsKeySortedBlob(t *testing.T) {
	rec := &flushCtx{}
	a := &Aggregate{In: trafficSchema, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
		Window: window.Tumbling(minute), Mode: FeedbackExploit}
	if err := a.Open(rec); err != nil {
		t.Fatal(err)
	}
	var blobs [2][]byte
	for i, h := range []string{parentFull, parentDelta} {
		var err error
		if blobs[i], err = hex.DecodeString(h); err != nil {
			t.Fatal(err)
		}
	}
	applyChain(t, a, blobs[0], blobs[1])
	if err := a.ProcessEOS(0, rec); err != nil {
		t.Fatal(err)
	}
	row := func(seg, wstart int64, avg float64) stream.Tuple {
		return stream.NewTuple(stream.Int(seg), stream.TimeMicros(wstart), stream.Float(avg))
	}
	want := []stream.Tuple{
		row(16, 0, 170.0/3), row(300, 0, 40), row(3, 0, 30), row(9, 0, 10), row(1, 0, 110), row(7, 0, 90),
		row(3, minute, 80), row(9, minute, 70),
	}
	if !reflect.DeepEqual(rec.tuples, want) {
		t.Fatalf("the parent's blobs restored and flushed as\n  %v\nwant\n  %v", rec.tuples, want)
	}
}

// BenchmarkAggregateFlush times the window flush alone over a wide window:
// 8192 groups filled off the clock, then emitted and closed.
func BenchmarkAggregateFlush(b *testing.B) {
	const groups = 8192
	ctx := discardCtx{}
	a := foldAggregate()
	if err := a.Open(ctx); err != nil {
		b.Fatal(err)
	}
	tu := traffic(0, 0, 0, 55)
	b.ReportAllocs()
	for wid := int64(0); wid < int64(b.N); wid++ {
		b.StopTimer()
		tu.Values[2] = stream.TimeMicros(wid * allocTestMinute)
		for g := int64(0); g < groups; g++ {
			tu.Values[0] = stream.Int((g*2654435761 + wid) % (1 << 40)) // scattered, so slot order is no key order
			_ = a.ProcessTuple(0, tu, ctx)
		}
		b.StartTimer()
		a.flushThrough(wid, ctx)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(a.Stats().Out), "ns/result")
}
