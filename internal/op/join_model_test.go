package op

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// joinModel is the join's state written plainly — per input one map from
// Tuple.Key to the entries holding that key, as the operator itself kept it
// before it had a store; no index, no slab — and its tuple, punctuation and
// feedback semantics over those maps. Tests drive it beside the operator and
// compare what both emit and count. Like aggModel it reads the operator's
// configuration and guard tables (guards are not what is under test) and
// nothing of its state.
type joinModel struct {
	j        *Join
	tables   [2]map[string][]*modelEntry
	asked    map[string]bool // never pruned, as it was before the store
	arrivals int64
	out      []stream.Tuple
	stats    JoinStats
}

type modelEntry struct {
	t       stream.Tuple
	ts      int64
	arrival int64
	matched bool
}

func newJoinModel(j *Join) *joinModel {
	return &joinModel{j: j, asked: map[string]bool{},
		tables: [2]map[string][]*modelEntry{{}, {}}}
}

func (m *joinModel) keys(side int) []int {
	if side == 0 {
		return m.j.LeftKeys
	}
	return m.j.RightKeys
}

// emit is the output guard and the counters around it.
func (m *joinModel) emit(t stream.Tuple, counter *int64) {
	if m.j.Mode != FeedbackIgnore && matchesAny(guardPatterns(m.j.guardsOut), t) {
		m.stats.SuppressedOut++
		return
	}
	*counter++
	m.out = append(m.out, t)
}

// tuple is ProcessTuple; call it before the operator's (same guards either
// way: a tuple installs none).
func (m *joinModel) tuple(side int, t stream.Tuple) {
	j := m.j
	if j.Mode == FeedbackExploit && matchesAny(guardPatterns(j.guardsIn[side]), t) {
		m.stats.SuppressedIn++
		return
	}
	k := t.Key(m.keys(side))
	if side == 0 && j.Impatient && !m.asked[k] {
		m.asked[k] = true
		m.stats.ImpatientSent++
	}
	m.arrivals++
	e := &modelEntry{t: t, ts: j.tsOf(side, t), arrival: m.arrivals}
	for _, o := range m.tables[1-side][k] {
		l, r := t, o.t
		if side == 1 {
			l, r = r, l
		}
		if j.Residual != nil && !j.Residual(l, r) {
			continue
		}
		o.matched, e.matched = true, true
		var carried []stream.Value
		for a, v := range r.Values {
			if !slices.Contains(j.RightKeys, a) {
				carried = append(carried, v)
			}
		}
		m.emit(stream.NewTuple(append(slices.Clone(l.Values), carried...)...).WithSeq(l.Seq), &m.stats.Emitted)
	}
	m.tables[side][k] = append(m.tables[side][k], e)
}

// remove drops the entries of one side that doomed picks and returns them in
// arrival order.
func (m *joinModel) remove(side int, doomed func(*modelEntry) bool) []*modelEntry {
	var gone []*modelEntry
	for k, es := range m.tables[side] {
		kept := es[:0:0]
		for _, e := range es {
			if doomed(e) {
				gone = append(gone, e)
			} else {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(m.tables[side], k)
		} else {
			m.tables[side][k] = kept
		}
	}
	slices.SortFunc(gone, func(a, b *modelEntry) int { return int(a.arrival - b.arrival) })
	return gone
}

// progress is punctuation ts ≤ wm on an input, or its EOS (math.MaxInt64);
// call it before the operator's, whose output guards punctuation may release.
func (m *joinModel) progress(input int, wm int64) {
	for _, e := range m.remove(1-input, func(e *modelEntry) bool { return e.ts <= wm }) {
		if input == 1 && m.j.LeftOuter && !e.matched {
			vals := slices.Clone(e.t.Values)
			for range m.j.Right.Arity() - len(m.j.RightKeys) {
				vals = append(vals, stream.Null)
			}
			m.emit(stream.NewTuple(vals...).WithSeq(e.t.Seq), &m.stats.OuterEmitted)
		}
	}
}

// feedback is the state purge of assumed feedback (Table 2); the guards it
// installs are the operator's own.
func (m *joinModel) feedback(f core.Feedback) {
	j := m.j
	if j.Mode != FeedbackExploit {
		return
	}
	var sides []int
	switch core.ClassifyJoinPattern(f.Pattern, j.part) {
	case core.JoinShapeJ:
		sides = []int{0, 1}
	case core.JoinShapeL, core.JoinShapeLJ:
		sides = []int{0}
	case core.JoinShapeR, core.JoinShapeJR:
		sides = []int{1}
	}
	for _, side := range sides {
		if prop := core.SafePropagation(f.Pattern, j.inMap[side]); prop.OK {
			gone := m.remove(side, func(e *modelEntry) bool { return prop.Pattern.Matches(e.t) })
			m.stats.PurgedByFeedback += int64(len(gone))
		}
	}
}

// check compares what the operator has emitted and counted with the model.
func (m *joinModel) check(t testing.TB, at string, got []stream.Tuple, stats JoinStats) {
	t.Helper()
	want := m.stats
	for side, table := range m.tables {
		n := 0
		for _, es := range table {
			n += len(es)
		}
		if side == 0 {
			want.LeftEntries = n
		} else {
			want.RightEntries = n
		}
	}
	if stats != want {
		t.Fatalf("%s: stats %+v, model %+v", at, stats, want)
	}
	if len(got) != len(m.out) {
		t.Fatalf("%s: %d tuples emitted, model %d", at, len(got), len(m.out))
	}
	for i := range got {
		if !slices.EqualFunc(got[i].Values, m.out[i].Values, stream.Value.Equal) || got[i].Seq != m.out[i].Seq {
			t.Fatalf("%s: emitted %v (seq %d) at %d, model %v (seq %d)", at, got[i], got[i].Seq, i, m.out[i], m.out[i].Seq)
		}
	}
}

// joinStep is one event of a script.
type joinStep struct {
	kind  byte // 't'uple, 'p'unctuation, 'f'eedback, 'c'ut
	input int
	t     stream.Tuple
	wm    int64
	f     core.Feedback
}

// joinModelCase is one random join configuration and a script for it.
type joinModelCase struct {
	mk    func() *Join
	steps []joinStep
}

func randomJoinCase(r *rand.Rand) joinModelCase {
	var c joinModelCase
	keyed2 := r.Intn(2) == 0 // join on (seg, ts) rather than seg
	mode := []FeedbackMode{FeedbackIgnore, FeedbackGuardOutput, FeedbackExploit, FeedbackExploit}[r.Intn(4)]
	outer, residual, impatient := r.Intn(2) == 0, r.Intn(3) == 0, r.Intn(2) == 0
	c.mk = func() *Join {
		j := newTestJoin(mode, false)
		if !keyed2 {
			j.LeftKeys, j.RightKeys = []int{0}, []int{0}
		}
		j.LeftOuter, j.Impatient = outer, impatient
		if residual {
			j.Residual = func(l, r stream.Tuple) bool { return l.At(2).AsFloat() <= r.At(2).AsFloat() }
		}
		return j
	}
	// Output schema: (seg, ts, pspeed, sspeed), or (seg, ts, pspeed, right_ts,
	// sspeed) when ts is not a join key.
	arity, sspeed := 4, 3
	if !keyed2 {
		arity, sspeed = 5, 4
	}
	speed := func() stream.Value { return stream.Float(float64(40 + r.Intn(4))) }
	seg := func() stream.Value { return stream.Int(r.Int63n(4)) }
	shapes := []func() punct.Pattern{
		func() punct.Pattern { return punct.OnAttr(arity, 0, punct.Eq(seg())) },                                   // J
		func() punct.Pattern { return punct.OnAttr(arity, 2, punct.Ge(speed())) },                                 // L
		func() punct.Pattern { return punct.OnAttr(arity, 2, punct.Eq(speed())).With(0, punct.Eq(seg())) },        // LJ
		func() punct.Pattern { return punct.OnAttr(arity, sspeed, punct.Lt(speed())) },                            // R
		func() punct.Pattern { return punct.OnAttr(arity, sspeed, punct.Eq(speed())).With(0, punct.Eq(seg())) },   // JR
		func() punct.Pattern { return punct.OnAttr(arity, 2, punct.Eq(speed())).With(sspeed, punct.Eq(speed())) }, // LR
	}
	var wm [2]int64 // per input: no tuple at or below it any more
	seq := int64(0)
	for n := 150 + r.Intn(250); len(c.steps) < n; {
		switch x := r.Intn(100); {
		case x < 70:
			in := r.Intn(2)
			seq++
			ts := wm[in] + 1 + r.Int63n(4) // disordered above the input's punctuation, never below it
			c.steps = append(c.steps, joinStep{kind: 't', input: in,
				t: stream.NewTuple(seg(), stream.TimeMicros(ts), speed()).WithSeq(seq)})
		case x < 84:
			in := r.Intn(2)
			wm[in] += r.Int63n(3)
			c.steps = append(c.steps, joinStep{kind: 'p', input: in, wm: wm[in]})
		case x < 92:
			c.steps = append(c.steps, joinStep{kind: 'f', f: core.NewAssumed(shapes[r.Intn(len(shapes))]())})
		default:
			c.steps = append(c.steps, joinStep{kind: 'c'})
		}
	}
	return c
}

// joinScript plays steps into a join and, when there is one, its model,
// checking one against the other after every step.
func joinScript(t testing.TB, at string, j *Join, m *joinModel, steps []joinStep, onCut func(step int)) []exec.Script {
	var script []exec.Script
	for i, s := range steps {
		switch s.kind {
		case 't':
			script = append(script, exec.Tuples(s.input, s.t))
		case 'p':
			script = append(script, exec.Punct(s.input, leftPunct(s.wm)))
		case 'f':
			script = append(script, exec.Feedback(0, s.f))
		}
		if m == nil && (s.kind != 'c' || onCut == nil) {
			continue
		}
		script = append(script, exec.Call(func(tr *exec.Trace) {
			if s.kind == 'c' && onCut != nil {
				onCut(i)
			}
			if m == nil {
				return
			}
			switch s.kind {
			case 't':
				m.tuple(s.input, s.t)
			case 'p':
				m.progress(s.input, s.wm)
			case 'f':
				m.feedback(s.f)
			}
			m.check(inRun{t}, fmt.Sprintf("%s step %d (%c)", at, i, s.kind), tr.Out[0].Tuples(), j.Stats())
		}))
	}
	return append(script, exec.EOS(0), exec.EOS(1))
}

// TestJoinStoreAgainstModel: random scripts of left and right tuples in
// disorder, punctuation on either input, assumed feedback of every
// JoinShape, and cuts, over random configurations (one or two join columns,
// every feedback mode, residual predicate, LEFT OUTER, impatient). After
// every step the operator has emitted the model's sequence and counts what
// it counts. Every cut's capture restores to the same bytes and counts; the
// twin restored from it emits, for the rest of the script, what the model
// does; and a capture encoded only after the script has gone on purging and
// compacting has the bytes it had at the cut (§2.4: nothing captured may
// alias the slabs).
func TestJoinStoreAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		c := randomJoinCase(rand.New(rand.NewSource(seed)))
		at := fmt.Sprintf("seed %d", seed)
		j := c.mk()
		m := newJoinModel(j)

		type cut struct {
			step, emitted int
			stats         JoinStats
			blob          []byte
			late          snapshot.Capture // a second capture of the same state, encoded at the end
		}
		var cuts []cut
		tr := exec.Drive(j, joinScript(t, at, j, m, c.steps, func(step int) {
			k := cut{step: step, emitted: len(m.out), stats: j.Stats(), blob: captureBlob(inRun{t}, j)}
			var err error
			if k.late, err = j.CaptureState(snapshot.CaptureFull); err != nil {
				panic(err)
			}
			cuts = append(cuts, k)
		})...)
		if tr.Err != nil {
			t.Fatalf("%s: %v", at, tr.Err)
		}
		m.progress(0, math.MaxInt64)
		m.progress(1, math.MaxInt64)
		m.check(t, at+" after EOS", tr.Out[0].Tuples(), j.Stats())

		for i, k := range cuts {
			where := fmt.Sprintf("%s cut %d (step %d)", at, i, k.step)
			enc := snapshot.NewEncoder()
			if err := k.late.Encode(enc); err != nil {
				t.Fatal(err)
			}
			if late, _ := enc.Bytes(); !bytes.Equal(late, k.blob) {
				t.Fatalf("%s: a capture encoded at the end of the script differs from one encoded at the cut (%dB vs %dB): it aliases live state", where, len(late), len(k.blob))
			}
			twin := c.mk()
			var restored []byte
			var restoredStats JoinStats
			// The twin finishes the script as the original did.
			tr := exec.Drive(twin, append([]exec.Script{exec.Restore(k.blob), exec.Call(func(*exec.Trace) {
				restored, restoredStats = captureBlob(inRun{t}, twin), twin.Stats()
			})}, joinScript(t, where+" twin", twin, nil, c.steps[k.step+1:], nil)...)...)
			if tr.Err != nil {
				t.Fatalf("%s: %v", where, tr.Err)
			}
			if !bytes.Equal(restored, k.blob) {
				t.Fatalf("%s: a capture restores to other bytes (%dB vs %dB)", where, len(restored), len(k.blob))
			}
			if restoredStats != k.stats {
				t.Fatalf("%s: restored stats %+v, at the cut %+v", where, restoredStats, k.stats)
			}
			rest := tr.Out[0].Tuples()
			if len(rest) != len(m.out)-k.emitted {
				t.Fatalf("%s: the restored twin emitted %d more tuples, the original %d", where, len(rest), len(m.out)-k.emitted)
			}
			for n := range rest {
				if w := m.out[k.emitted+n]; !slices.EqualFunc(rest[n].Values, w.Values, stream.Value.Equal) || rest[n].Seq != w.Seq {
					t.Fatalf("%s: the restored twin emitted %v at %d, the original %v", where, rest[n], n, w)
				}
			}
			if got, w := twin.Stats(), j.Stats(); got != w {
				t.Fatalf("%s: the restored twin ends with stats %+v, the original %+v", where, got, w)
			}
		}
	}
}
