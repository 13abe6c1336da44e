package op

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
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
func captureBlob(t *testing.T, st snapshot.Stater, mode snapshot.CaptureMode) []byte {
	t.Helper()
	c, err := st.CaptureState(mode)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCap(t, c)
}

// aggModel is the aggregate's state written plainly — one map keyed
// "wid;key", as the operator itself kept it before it had a store — and its
// feedback, flush and restore semantics over that map. Tests drive it beside
// the operator and compare. It reads the operator's configuration and guard
// tables (guards are not what is under test) and nothing of its state.
type aggModel struct {
	a       *Aggregate
	state   map[string]*modelGroup
	touched map[string]bool // keys folded into since the last cut
}

type modelGroup struct {
	wid      int64
	vals     []stream.Value
	count    int64
	sum      float64
	min, max float64
}

func newAggModel(a *Aggregate) *aggModel {
	return &aggModel{a: a, state: map[string]*modelGroup{}, touched: map[string]bool{}}
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
		} else {
			m.state[k] = g
		}
		m.touched[k] = true
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
	plan := core.AggCharacterizationGiven(a.Kind, shape, f.Pattern, a.attrMap, a.NonNegative)
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
// every entry with wid ≤ lastFull, ordered by (wid, key), as result tuples,
// less those an output guard covers — and removes those entries.
func (m *aggModel) flush(lastFull int64) []stream.Tuple {
	type entry struct {
		key string
		g   *modelGroup
	}
	var due []entry
	for k, g := range m.state {
		if g.wid <= lastFull {
			due = append(due, entry{k[strings.IndexByte(k, ';'):], g})
			delete(m.state, k)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].g.wid != due[j].g.wid {
			return due[i].g.wid < due[j].g.wid
		}
		return due[i].key < due[j].key
	})
	guards := guardPatterns(m.a.guardsOut)
	var out []stream.Tuple
	for _, e := range due {
		if t := m.result(e.g); m.a.Mode == FeedbackIgnore || !matchesAny(guards, t) {
			out = append(out, t)
		}
	}
	return out
}

// modelCut is what the model keeps of one capture: the state, the keys
// folded into since the previous one, and the guards in force.
type modelCut struct {
	state       map[string]modelGroup
	touched     map[string]bool
	out, prefix []punct.Pattern
}

// cut is CaptureState.
func (m *aggModel) cut() modelCut {
	c := modelCut{state: map[string]modelGroup{}, touched: m.touched,
		out: guardPatterns(m.a.guardsOut), prefix: guardPatterns(m.a.guardsPrefix)}
	for k, g := range m.state {
		c.state[k] = *g
	}
	m.touched = map[string]bool{}
	return c
}

// restore makes the model hold what twin must hold after loading cuts[0] and
// applying the rest as deltas: of each cut's state, what the chain so far
// held or the cut's interval folded into, less what that cut's guards cover
// (DESIGN.md §6.3) among the groups the blob carries — all of them for the
// base, the folded-into ones for a delta.
func (m *aggModel) restore(twin *Aggregate, cuts []modelCut) {
	m.a = twin
	held := map[string]*modelGroup{}
	for i, c := range cuts {
		next := map[string]*modelGroup{}
		for k, g := range c.state {
			carried := i == 0 || c.touched[k]
			if held[k] == nil && !carried {
				continue
			}
			g := g
			if carried && (matchesAny(c.prefix, m.prefix(&g)) || matchesAny(c.out, m.result(&g))) {
				continue
			}
			next[k] = &g
		}
		held = next
	}
	m.state, m.touched = held, map[string]bool{}
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

// TestAggregateFlushEqualsReference drives random streams — tumbling and
// sliding windows, punctuation at random cadences (most closing nothing),
// tuples for windows already flushed, group- and value-shape feedback purges
// inside open windows, and captures chained full→delta→delta and restored
// into a fresh twin at any length — through the operator and the plain-map
// model side by side. Every punctuation's output must be the model's, and
// after every event the store must hold exactly the model's groups.
func TestAggregateFlushEqualsReference(t *testing.T) {
	const slide = int64(1_000_000)
	// Coverage: results emitted, results for a window flushed before,
	// punctuations that closed nothing over open state, groups purged by
	// feedback, restores of a full→delta→delta chain, and deltas taken while
	// a window at or below the close watermark was open again (re-opened
	// before the capture) or a window closed before the previous capture was
	// (re-opened after it).
	var flushed, late, idle, purged, chains3, reopenedBefore, reopenedAfter int
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
					a = build()
					applyChain(t, a, chain[0], chain[1:]...)
					m.restore(a, cuts)
				}
				if len(chain) == 3 {
					chains3++
					chain, cuts = nil, nil
				}
			}
			m.check(t, when)
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
	if flushed == 0 || late == 0 || idle == 0 || purged == 0 || chains3 == 0 || reopenedBefore == 0 || reopenedAfter == 0 {
		t.Fatalf("scripts covered %d results, %d of them late, %d idle punctuations, %d purged groups, %d three-blob chains, %d/%d deltas over a window re-opened before/after the previous capture; all must occur",
			flushed, late, idle, purged, chains3, reopenedBefore, reopenedAfter)
	}
	t.Logf("%d results, %d late, %d idle punctuations, %d purged groups, %d three-blob chains, %d/%d re-opened windows in deltas",
		flushed, late, idle, purged, chains3, reopenedBefore, reopenedAfter)
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
