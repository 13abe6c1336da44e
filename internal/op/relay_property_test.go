package op

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// relayStep is one delivery to a fan-out: feedback from the consumer of a
// port, or (fb nil) the punctuation ts ≤ upTo minutes.
type relayStep struct {
	port int
	fb   *core.Feedback
	upTo int64
}

func (s relayStep) String() string {
	if s.fb == nil {
		return fmt.Sprintf("punct ts≤%dmin", s.upTo)
	}
	return fmt.Sprintf("port %d: %s%s", s.port, s.fb.Intent.Sigil(), s.fb.Pattern)
}

// relayFanOut is a fan-out under the relay property: the intents it relays,
// and the partition that decides a key-pinned pattern (-1: none does).
type relayFanOut struct {
	name    string
	open    func() exec.Operator
	intents []core.Intent
	home    func(p punct.Pattern) int
}

func relayFanOuts() []relayFanOut {
	split := newSplit(3, 0)
	return []relayFanOut{
		{"split", func() exec.Operator { return newSplit(3, 0) },
			[]core.Intent{core.Assumed, core.Desired, core.Demanded}, split.routesOnlyTo},
		{"duplicate", func() exec.Operator {
			return &Duplicate{Schema: trafficSchema, N: 3, Mode: FeedbackExploit, Propagate: true}
		},
			[]core.Intent{core.Assumed, core.Desired}, func(punct.Pattern) int { return -1 }},
	}
}

func segIs(v int64) punct.Pattern { return punct.OnAttr(4, 0, punct.Eq(stream.Int(v))) }

func tsUpTo(min int64) punct.Pattern {
	return punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(min*minute)))
}

// randomRelayScript draws n steps: feedback of every intent on random ports
// over [seg=v], [seg∈S], [ts≤t] and [seg=v, ts≤t], and now and then a
// rising ts punctuation.
func randomRelayScript(rng *rand.Rand, n int) []relayStep {
	var steps []relayStep
	upTo := int64(0)
	for len(steps) < n {
		if rng.Intn(5) == 0 {
			upTo += int64(rng.Intn(2))
			steps = append(steps, relayStep{upTo: upTo})
			continue
		}
		var p punct.Pattern
		v, t := int64(1+rng.Intn(4)), int64(1+rng.Intn(8))
		switch rng.Intn(4) {
		case 0:
			p = segIs(v)
		case 1:
			var set []stream.Value
			for _, w := range rng.Perm(4)[:2+rng.Intn(2)] {
				set = append(set, stream.Int(int64(w+1)))
			}
			p = punct.OnAttr(4, 0, punct.OneOf(set...))
		case 2:
			p = tsUpTo(t)
		default:
			p = segIs(v).With(2, punct.Le(stream.TimeMicros(t*minute)))
		}
		f := core.Feedback{Intent: core.Intent(rng.Intn(3)), Pattern: p, Origin: "consumer", Seq: int64(len(steps))}
		steps = append(steps, relayStep{port: rng.Intn(3), fb: &f})
	}
	return steps
}

// playRelays drives the fan-out through the steps, captures it after the
// first half and finishes on a restored twin. It returns the relays of each
// step.
func playRelays(t *testing.T, fo relayFanOut, steps []relayStep) [][]core.Feedback {
	relays := make([][]core.Feedback, len(steps))
	var blob []byte
	play := func(o exec.Operator, from, to int, first, last exec.Script) {
		marks := make([]int, to-from+1) // relays sent by the end of each step
		script := []exec.Script{first}
		for i := from; i < to; i++ {
			if st := steps[i]; st.fb != nil {
				script = append(script, exec.Feedback(st.port, *st.fb))
			} else {
				script = append(script, exec.Punct(0, punct.NewEmbedded(tsUpTo(st.upTo))))
			}
			script = append(script, exec.Call(func(tr *exec.Trace) { marks[i-from+1] = len(tr.Sent[0]) }))
		}
		tr := exec.Drive(o, append(script, last)...)
		if tr.Err != nil {
			t.Fatal(tr.Err)
		}
		for i := from; i < to; i++ {
			relays[i] = tr.Sent[0][marks[i-from]:marks[i-from+1]]
		}
	}
	mid := len(steps) / 2
	live := fo.open()
	play(live, 0, mid, nil, captureAt(t, live.(snapshot.Stater), &blob))
	play(fo.open(), mid, len(steps), exec.Restore(blob), nil)
	return relays
}

// checkRelays holds the relays of each step to the property: a relay goes at
// most once — no relay of an intent's pattern that an earlier relay of that
// intent, not yet covered by punctuation, implies (a desired pattern lost at
// the restore may travel again) — and an assertion travels once a port's
// own assertion makes it held by every port (by its partition, for a
// key-pinned pattern arriving there; desired feedback at once): by the end of
// that step a relay implying it is outstanding. It returns the first breach.
func checkRelays(fo relayFanOut, steps []relayStep, relays [][]core.Feedback) error {
	type sent struct {
		fb   core.Feedback
		step int
	}
	var out []sent
	upTo, mid := int64(-1), len(steps)/2
	covered := func(p punct.Pattern) bool { return upTo >= 0 && p.Implies(tsUpTo(upTo)) }
	var held [3][3][]punct.Pattern // by intent and port: what the consumers asserted
	holds := func(intent core.Intent, port int, p punct.Pattern) bool {
		for _, q := range held[intent][port] {
			if !covered(q) && p.Implies(q) {
				return true
			}
		}
		return false
	}
	for i, st := range steps {
		if i == mid {
			held[core.Desired] = [3][]punct.Pattern{} // not captured
		}
		for _, r := range relays[i] {
			for _, o := range out {
				lost := r.Intent == core.Desired && o.step < mid && i >= mid
				if o.fb.Intent == r.Intent && !lost && !covered(o.fb.Pattern) && r.Pattern.Implies(o.fb.Pattern) {
					return fmt.Errorf("step %d (%s) relayed %s%s, which step %d's relay %s%s implies",
						i, st, r.Intent.Sigil(), r.Pattern, o.step, r.Intent.Sigil(), o.fb.Pattern)
				}
			}
			out = append(out, sent{r, i})
		}
		if st.fb == nil {
			upTo = st.upTo
			continue
		}
		f := *st.fb
		fresh := !holds(f.Intent, st.port, f.Pattern)
		held[f.Intent][st.port] = append(held[f.Intent][st.port], f.Pattern)
		if !slices.Contains(fo.intents, f.Intent) || covered(f.Pattern) {
			continue
		}
		var due bool
		switch home := fo.home(f.Pattern); {
		case f.Intent == core.Desired:
			due = true
		case !fresh:
		case home >= 0:
			due = home == st.port
		default:
			due = true
			for port := range held[f.Intent] {
				due = due && holds(f.Intent, port, f.Pattern)
			}
		}
		travelled := false
		for _, o := range out {
			travelled = travelled || o.fb.Intent == f.Intent && !covered(o.fb.Pattern) && f.Pattern.Implies(o.fb.Pattern)
		}
		if due && !travelled {
			return fmt.Errorf("step %d (%s): held as a relay requires, but nothing implying it has travelled", i, st)
		}
	}
	return nil
}

// TestFanOutRelayProperty holds SPLIT and DUPLICATE to one relay rule, their
// guard tables being the record of what travelled upstream: seeded scripts
// of feedback and punctuation, cut midway by a capture and a restore into a
// twin, and the script that once relayed a pattern its earlier relay
// implied.
func TestFanOutRelayProperty(t *testing.T) {
	set12 := punct.OnAttr(4, 0, punct.OneOf(stream.Int(1), stream.Int(2)))
	twice := []relayStep{
		{port: 0, fb: &core.Feedback{Intent: core.Assumed, Pattern: set12}},
		{port: 1, fb: &core.Feedback{Intent: core.Assumed, Pattern: set12}},
		{port: 2, fb: &core.Feedback{Intent: core.Assumed, Pattern: set12}}, // unanimous: relayed
		{port: 0, fb: &core.Feedback{Intent: core.Assumed, Pattern: segIs(1)}},
		{port: 1, fb: &core.Feedback{Intent: core.Assumed, Pattern: segIs(1)}},
		{port: 2, fb: &core.Feedback{Intent: core.Assumed, Pattern: segIs(1)}}, // every table covers it already
	}
	for _, fo := range relayFanOuts() {
		t.Run(fo.name, func(t *testing.T) {
			relays := playRelays(t, fo, twice)
			n := 0
			for _, rs := range relays {
				n += len(rs)
			}
			if n != 1 {
				t.Errorf("relayed %d times, want once: %v", n, relays)
			}
			if err := checkRelays(fo, twice, relays); err != nil {
				t.Error(err)
			}
			for seed := int64(1); seed <= 200; seed++ {
				steps := randomRelayScript(rand.New(rand.NewSource(seed)), 40)
				if err := checkRelays(fo, steps, playRelays(t, fo, steps)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
