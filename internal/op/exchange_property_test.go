package op_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// fanIns are the three ways a plan gets a K-input fan-in. All of them align
// punctuation through one mechanism, so one suite holds them to one rule.
var fanIns = []struct {
	name  string
	build func(t *testing.T, k int) exec.Operator
}{
	{"merge", func(_ *testing.T, k int) exec.Operator {
		return &op.Merge{Schema: readings, K: k, Mode: op.FeedbackExploit, Propagate: true}
	}},
	{"plan union", func(t *testing.T, k int) exec.Operator {
		b := plan.New()
		ins := make([]plan.Stream, k)
		for i := range ins {
			ins[i] = b.Source(exec.NewSliceSource(fmt.Sprintf("in%d", i), readings))
		}
		ins[0].Union("u", ins[1:]...)
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		g := b.Graph()
		for id := exec.NodeID(0); int(id) < g.NumNodes(); id++ {
			if !g.IsSource(id) && g.NameAt(id) == "u" {
				return g.OperatorAt(id)
			}
		}
		t.Fatal("plan has no union node")
		return nil
	}},
	{"pace", func(_ *testing.T, k int) exec.Operator {
		return &op.Pace{Schema: readings, K: k, TsAttr: 2, Tolerance: 0}
	}},
}

// fanInStep is one delivery to a fan-in: a tuple, a punctuation, or (both
// zero) the input's EOS.
type fanInStep struct {
	input int
	tuple stream.Tuple
	punct *punct.Pattern
}

func tsLE(us int64) punct.Pattern {
	return punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(us)))
}

func segClosed(seg int64) punct.Pattern {
	return punct.OnAttr(4, 0, punct.Eq(stream.Int(seg)))
}

func punctStep(input int, p punct.Pattern) fanInStep { return fanInStep{input: input, punct: &p} }

// fanInScripts are the fixed histories; want is the exact punctuation the
// fan-in must emit. The first two failed for UNION and PACE while each kept
// its own single-attribute watermark.
var fanInScripts = []struct {
	name  string
	k     int
	steps []fanInStep
	want  []punct.Pattern
}{
	{"an input's EOS does not repeat a frontier that did not advance", 2,
		[]fanInStep{punctStep(0, tsLE(10)), punctStep(1, tsLE(10)), {input: 1}},
		[]punct.Pattern{tsLE(10)}},
	{"a non-progress pattern every input asserts is forwarded", 2,
		[]fanInStep{punctStep(0, segClosed(5)), punctStep(1, segClosed(5))},
		[]punct.Pattern{segClosed(5)}},
	{"the frontier is the minimum over live inputs", 3,
		[]fanInStep{punctStep(0, tsLE(500)), punctStep(1, tsLE(300)), {input: 2}, punctStep(0, tsLE(400)), {input: 1}},
		[]punct.Pattern{tsLE(300), tsLE(500)}},
}

// TestFanInAlignmentProperty drives every fan-in with the fixed histories
// and with seeded random ones, and checks the alignment rule on what comes
// out: a punctuation is emitted only when every live input has asserted
// punctuation implying it, and none is emitted twice. Drive holds every
// tuple to the punctuation emitted before it (§3.1).
func TestFanInAlignmentProperty(t *testing.T) {
	for _, fi := range fanIns {
		for _, sc := range fanInScripts {
			t.Run(fi.name+"/"+sc.name, func(t *testing.T) {
				got := runFanIn(t, fi.build(t, sc.k), sc.k, sc.steps)
				if len(got) != len(sc.want) {
					t.Fatalf("emitted %v, want %v", got, sc.want)
				}
				for i := range got {
					if !got[i].Equal(sc.want[i]) {
						t.Fatalf("emitted %v, want %v", got, sc.want)
					}
				}
			})
		}
		for seed := int64(0); seed < 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fi.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(41 + seed))
				k := 3 + rng.Intn(2) // one input ends early: at least two stay live
				steps, horizon := randomFanInScript(rng, k)
				got := runFanIn(t, fi.build(t, k), k, steps)
				// Liveness: every input asserted ≤horizon before any ended.
				for _, p := range got {
					if p.Equal(tsLE(horizon)) {
						return
					}
				}
				t.Fatalf("every input asserted %v but the fan-in never did: %v", tsLE(horizon), got)
			})
		}
	}
}

// runFanIn delivers steps to o and checks every emission, after each step,
// against a plain record of what each input has asserted. It returns the
// emitted punctuation.
func runFanIn(t *testing.T, o exec.Operator, k int, steps []fanInStep) []punct.Pattern {
	t.Helper()
	asserted := make([][]punct.Pattern, k)
	ended := make([]bool, k)
	var emitted []punct.Pattern
	seen := 0
	script := make([]exec.Script, 0, 2*len(steps))
	for n, st := range steps {
		switch {
		case st.punct != nil:
			script = append(script, exec.Punct(st.input, punct.NewEmbedded(*st.punct)))
		case st.tuple.Arity() > 0:
			script = append(script, exec.Tuples(st.input, st.tuple))
		default:
			script = append(script, exec.EOS(st.input))
		}
		script = append(script, exec.Call(func(tr *exec.Trace) {
			if st.punct != nil {
				asserted[st.input] = append(asserted[st.input], *st.punct)
			} else if st.tuple.Arity() == 0 {
				ended[st.input] = true
			}
			out := tr.Out[0].Items()
			for _, it := range out[seen:] {
				if it.Kind != queue.ItemPunct {
					continue
				}
				p := it.Punct.Pattern
				for _, q := range emitted {
					if p.Equal(q) {
						panic(fmt.Sprintf("step %d: %v emitted twice", n, p))
					}
				}
				for i := 0; i < k; i++ {
					covered := ended[i]
					for _, q := range asserted[i] {
						covered = covered || p.Implies(q)
					}
					if !covered {
						panic(fmt.Sprintf("step %d: %v emitted while live input %d has asserted only %v", n, p, i, asserted[i]))
					}
				}
				emitted = append(emitted, p)
			}
			seen = len(out)
		}))
	}
	if tr := exec.Drive(o, script...); tr.Err != nil {
		t.Fatal(tr.Err)
	}
	return emitted
}

// randomFanInScript interleaves k inputs' substreams: timestamps increase
// per input, progress punctuation asserts exactly the prefix already sent,
// "segment closed" punctuation is followed by no tuple of that segment, and
// the last input ends early. Every input finally asserts ≤horizon, then ends.
func randomFanInScript(rng *rand.Rand, k int) (steps []fanInStep, horizon int64) {
	ts := make([]int64, k)
	closed := make([]map[int64]bool, k)
	left := make([]int, k)
	for i := range left {
		closed[i] = map[int64]bool{}
		left[i] = 40 + rng.Intn(120)
	}
	left[k-1] = 1 + rng.Intn(5)
	for live := k; live > 0; {
		i := rng.Intn(k)
		if left[i] < 0 {
			continue
		}
		if left[i] == 0 {
			left[i] = -1
			live--
			if i == k-1 {
				steps = append(steps, fanInStep{input: i}) // ends early
			}
			continue
		}
		left[i]--
		switch r := rng.Intn(8); {
		case r == 0:
			steps = append(steps, punctStep(i, tsLE(ts[i])))
		case r == 1:
			if seg := int64(rng.Intn(4)); !closed[i][seg] { // asserted once per input
				closed[i][seg] = true
				steps = append(steps, punctStep(i, segClosed(seg)))
			}
		default:
			seg := int64(rng.Intn(6))
			for closed[i][seg] {
				seg++
			}
			ts[i] += 1 + int64(rng.Intn(500))
			steps = append(steps, fanInStep{input: i, tuple: reading(seg, int64(rng.Intn(7)), ts[i], 40+float64(rng.Intn(30)))})
		}
	}
	for _, v := range ts {
		horizon = max(horizon, v)
	}
	for i := 0; i < k-1; i++ {
		steps = append(steps, punctStep(i, tsLE(horizon)))
	}
	for i := 0; i < k-1; i++ {
		steps = append(steps, fanInStep{input: i})
	}
	return steps, horizon
}
