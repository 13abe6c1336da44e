package op

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"maps"
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

// loadBlob loads blob into st, which must consume it whole.
func loadBlob(t testing.TB, st snapshot.Stater, blob []byte) {
	t.Helper()
	dec := snapshot.NewDecoder(blob)
	if err := st.LoadState(dec); err != nil || dec.Remaining() != 0 {
		t.Fatalf("load: %v, %d bytes left", err, dec.Remaining())
	}
}

// captureBlob takes a capture of st and encodes it.
func captureBlob(t testing.TB, st snapshot.Stater) []byte {
	t.Helper()
	enc := snapshot.NewEncoder()
	if err := snapshot.EncodeCapture(st, enc); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// aggModel is the aggregate's state written plainly — one map keyed
// "wid;key", as the operator itself kept it before it had a store, each group
// stamped with when it was inserted — and its feedback, flush and restore
// semantics over that map. A window's groups leave in insertion order; a
// group deleted and inserted again is a new group, at the end. Tests drive it
// beside the operator and compare. It reads the operator's configuration and
// guard tables (guards are not what is under test) and nothing of its state.
type aggModel struct {
	a     *Aggregate
	state map[string]*modelGroup
	tick  int64 // the stamps' clock; it only moves forward
}

type modelGroup struct {
	wid      int64
	vals     []stream.Value
	count    int64
	sum      float64
	min, max float64
	// pos orders the group among its window's in the operator the model
	// stands beside: its insertion, until a restore places the group anew.
	pos int64
}

func newAggModel(a *Aggregate) *aggModel {
	return &aggModel{a: a, state: map[string]*modelGroup{}}
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
		} else {
			m.state[k] = g
			g.pos = m.stamp()
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
	plan := core.AggCharacterization(a.Kind, shape, f.Pattern, a.attrMap)
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

// modelCut is what the model keeps of one capture: the state and the guards
// in force.
type modelCut struct {
	state       map[string]modelGroup
	out, prefix []punct.Pattern
}

// cut is CaptureState.
func (m *aggModel) cut() modelCut {
	c := modelCut{state: map[string]modelGroup{},
		out: guardPatterns(m.a.guardsOut), prefix: guardPatterns(m.a.guardsPrefix)}
	for k, g := range m.state {
		c.state[k] = *g
	}
	return c
}

// restore makes the model hold what twin must hold after loading c. A blob
// carries groups by position and the twin inserts them in that order, and
// then deletes those the cut's guards cover (DESIGN.md §6.3). It returns how
// many groups the guards deleted.
func (m *aggModel) restore(twin *Aggregate, c modelCut) (dropped int) {
	m.a = twin
	keys := slices.Collect(maps.Keys(c.state))
	sort.Slice(keys, func(x, y int) bool { return c.state[keys[x]].pos < c.state[keys[y]].pos })
	m.state = map[string]*modelGroup{}
	for _, k := range keys {
		g := c.state[k]
		g.pos = m.stamp()
		if matchesAny(c.prefix, m.prefix(&g)) || matchesAny(c.out, m.result(&g)) {
			dropped++
		} else {
			m.state[k] = &g
		}
	}
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
				key := w.key(int32(slot))
				if at, _ := w.lookup(hashKey(key, a.store.cols), key, a.store.cols); at >= 0 && !w.groups[at].dead {
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
// inside open windows, and captures restored into a fresh twin — through the
// operator and the plain-map model side by side. Every punctuation's output must be the model's, tuple
// for tuple in the model's order, and after every event the store must hold
// exactly the model's groups. The order is canonical: a twin that dropped
// nothing on the way in (§6.3) encodes a full capture to the bytes the
// operator it was restored from does, and goes on as the operator under test.
func TestAggregateFlushEqualsReference(t *testing.T) {
	const slide = int64(1_000_000)
	// Coverage: results emitted, results for a window flushed before,
	// punctuations that closed nothing over open state, groups purged by
	// feedback, restores, restores while a window flushed before was open
	// again, twins whose capture was compared with their original's, and
	// tombstones whose group came back in a later slot.
	var flushed, late, idle, purged, restores, reopened, sameBytes, revived int
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
			default: // capture, and restore it into a fresh twin that goes on as the operator
				blob, c := captureBlob(t, a), m.cut()
				if w := a.store.first(); w != nil && w.wid <= prevFull {
					reopened++
				}
				twin := build()
				loadBlob(t, twin, blob)
				if m.restore(twin, c) == 0 { // the cut's guards covered no group it carried
					sameBytes++
					if !bytes.Equal(captureBlob(t, twin), blob) {
						t.Fatalf("%s: a restored twin encodes a capture that differs from its original's", when)
					}
				}
				a = twin
				restores++
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
	if flushed == 0 || late == 0 || idle == 0 || purged == 0 || restores == 0 || reopened == 0 || sameBytes == 0 || revived == 0 {
		t.Fatalf("scripts covered %d results, %d of them late, %d idle punctuations, %d purged groups, %d restores, %d over a re-opened window, %d twins compared byte for byte, %d events over a revived tombstone; all must occur",
			flushed, late, idle, purged, restores, reopened, sameBytes, revived)
	}
	t.Logf("%d results, %d late, %d idle punctuations, %d purged groups, %d restores, %d over a re-opened window, %d twins compared byte for byte, %d events over a revived tombstone",
		flushed, late, idle, purged, restores, reopened, sameBytes, revived)
}

// TestAggregateTombstoneOrderCanonical: a window's order must be the same in
// the operator and in every twin restored from its captures, or equal
// histories stop encoding to equal bytes and a recovered run stops repeating
// the crashed one's output. The one history where insertion order and restore
// order could part is a group purged, captured over while it is dead, and
// folded into again: a capture does not carry the dead slot, so a twin puts
// the returning group at the end — and so must the operator (a purged slot is
// a tombstone; reviving it in place fails here). The operator and a twin
// loaded from the capture taken while the group was dead and fed the same
// tuples must encode the same capture and flush the same sequence.
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
	// Segments 5, 2, 8 arrive; 2 is purged with no input guard left behind
	// (as §6.3's drop at restore purges); a capture while it is dead; 2 comes
	// back, then 6 is new.
	live := build()
	fold(live, 5, 2, 8)
	live.Purge(core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(2)))), core.ResponsePlan{}) // the pins it returns are dropped
	if live.Stats().OpenGroups != 2 {
		t.Fatalf("the purge left %d groups, want 2", live.Stats().OpenGroups)
	}
	twin := build()
	loadBlob(t, twin, captureBlob(t, live))
	fold(live, 2, 6)
	fold(twin, 2, 6)

	wantBytes := captureBlob(t, live)
	if err := live.ProcessEOS(0, rec); err != nil {
		t.Fatal(err)
	}
	wantOut := rec.tuples
	var segs []int64
	for _, tu := range wantOut {
		segs = append(segs, tu.At(0).AsInt())
	}
	if !reflect.DeepEqual(segs, []int64{5, 8, 2, 6}) {
		t.Fatalf("the operator flushed segments %v, want [5 8 2 6]: the returning group goes to the end", segs)
	}
	if !bytes.Equal(captureBlob(t, twin), wantBytes) {
		t.Error("the twin encodes a capture that differs from the operator's")
	}
	rec.tuples = nil
	if err := twin.ProcessEOS(0, rec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.tuples, wantOut) {
		t.Errorf("the twin flushed %v, the operator %v", rec.tuples, wantOut)
	}
}

// parentFull is a full capture as the commit before the flush stopped
// sorting wrote it (d519f0b: minute AVG by segment; segments 9, 16, 3, 300 and
// 16 again into window 0, then 9 and 3 into window 1) — each window's groups
// in the order of their keys' text encoding: 16, 300, 3, 9.
const parentFull = "01040008020120040240518000000000000240340000000000000240490000000000000201d804020240440000000000000240440000000000000240440000000000000201060202403e00000000000002403e00000000000002403e000000000000020112020240240000000000000240240000000000000240240000000000000204020106020240540000000000000240540000000000000240540000000000000201120202405180000000000002405180000000000002405180000000000000000e000e00000000"

// TestAggregateLoadsKeySortedBlob: order inside a window was never part of
// the blob's format, so a blob written in key order by the build before this
// one loads as it is: every group and its accumulators, in the order the blob
// lists them.
func TestAggregateLoadsKeySortedBlob(t *testing.T) {
	rec := &flushCtx{}
	a := &Aggregate{In: trafficSchema, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
		Window: window.Tumbling(minute), Mode: FeedbackExploit}
	if err := a.Open(rec); err != nil {
		t.Fatal(err)
	}
	blob, err := hex.DecodeString(parentFull)
	if err != nil {
		t.Fatal(err)
	}
	loadBlob(t, a, blob)
	if err := a.ProcessEOS(0, rec); err != nil {
		t.Fatal(err)
	}
	row := func(seg, wstart int64, avg float64) stream.Tuple {
		return stream.NewTuple(stream.Int(seg), stream.TimeMicros(wstart), stream.Float(avg))
	}
	want := []stream.Tuple{
		row(16, 0, 35), row(300, 0, 40), row(3, 0, 30), row(9, 0, 10),
		row(3, minute, 80), row(9, minute, 70),
	}
	if !reflect.DeepEqual(rec.tuples, want) {
		t.Fatalf("the parent's blob restored and flushed as\n  %v\nwant\n  %v", rec.tuples, want)
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

// BenchmarkAggregateFold times the fold loop as a plan drives it: runs of 32
// tuples (the runtime's control recheck) through ApplyTupleBatch, and at every
// 512-tuple block the windows its punctuation completes closed — dropped, not
// emitted, so the flush is not on the clock. Two key shapes: 256 Zipf-skewed
// keys over 8-block windows with one tuple in 16 late within its block
// (groupby_parallel's stream: a few hot groups, every fold a hit); and 50 000
// uniform keys over 16-block windows (remote_checkpointed's: most folds
// insert a group).
func BenchmarkAggregateFold(b *testing.B) {
	const block, run, ring = 512, 32, 1 << 13
	zipf := func(n int) func(*rand.Rand) int64 {
		var h, cum float64
		for r := 1; r <= n; r++ {
			h += 1 / float64(r)
		}
		table := make([]int64, 0, 4096)
		for r := 1; r <= n; r++ {
			cum += 1 / float64(r) / h
			for len(table) < min(4096, int(math.Round(cum*4096))) {
				table = append(table, int64(r-1))
			}
		}
		for len(table) < 4096 {
			table = append(table, int64(n-1))
		}
		return func(rng *rand.Rand) int64 { return table[rng.Intn(4096)] }
	}
	for _, c := range []struct {
		name   string
		blocks int64 // window range, in blocks
		key    func(*rand.Rand) int64
		late   bool
	}{
		{"zipf256_late", 8, zipf(256), true},
		{"uniform50k", 16, func(rng *rand.Rand) int64 { return rng.Int63n(50_000) }, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tuples := make([]stream.Tuple, ring)
			late := make([]int64, ring) // how far a tuple's ts lies behind its position
			for i := range tuples {
				tuples[i] = traffic(c.key(rng), rng.Int63n(32), 0, float64(rng.Intn(800))/10)
				if c.late && rng.Intn(16) == 0 {
					late[i] = min(int64(rng.Intn(201)), int64(i%block)) // never before its block
				}
			}
			ctx := discardCtx{}
			a := &Aggregate{In: trafficSchema, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
				Window: window.Tumbling(c.blocks * block)}
			if err := a.Open(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += run {
				ts := tuples[i%ring : i%ring+min(run, b.N-i)]
				for j := range ts {
					ts[j].Values[2] = stream.TimeMicros(int64(i+j) - late[(i+j)%ring])
				}
				_ = a.ApplyTupleBatch(0, ts, ctx)
				if end := int64(i + len(ts)); end%block == 0 {
					last := a.Window.LastFullWindow(end - 1)
					for w := a.store.first(); w != nil && w.wid <= last; w = a.store.first() {
						a.store.closeFirst()
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
		})
	}
}
