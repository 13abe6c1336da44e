package op

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/window"
)

// The OOP architecture's core promise: operator results do not depend on
// physical arrival order, only on punctuation. These tests disorder inputs
// while keeping their punctuation truthful and require identical (set-equal)
// results.

func TestAggregateOrderAgnostic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const epoch = int64(60_000_000)
	var input []stream.Tuple
	for i := 0; i < 600; i++ {
		input = append(input, traffic(r.Int63n(4), r.Int63n(3), r.Int63n(5*epoch), 20+float64(r.Intn(60))))
	}
	run := func(items []queue.Item) []stream.Tuple {
		a := &Aggregate{
			In: trafficSchema, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3,
			GroupBy: []int{0}, Window: window.Tumbling(epoch),
		}
		tr := exec.Drive(a, exec.Items(0, items...), exec.EOS(0))
		if tr.Err != nil {
			t.Fatal(tr.Err)
		}
		return tr.Out[0].Tuples()
	}
	// In timestamp order, punctuated between epochs; then displaced by up to
	// 40 positions, the punctuation delayed so it stays truthful.
	sort.SliceStable(input, func(i, j int) bool { return input[i].At(2).Micros() < input[j].At(2).Micros() })
	var ordered []queue.Item
	for i, tp := range input {
		if e := tp.At(2).Micros() / epoch; i > 0 && e != input[i-1].At(2).Micros()/epoch {
			ordered = append(ordered, queue.PunctItem(tsPunct(e*epoch-1)))
		}
		ordered = append(ordered, queue.TupleItem(tp))
	}
	shuffled := gen.Disorder{Bound: 40, TsAttr: 2, Seed: 17}.Apply(ordered)
	// A window's results are a set the closing punctuation delimits: they
	// leave in the order their groups first arrived, which disorder changes.
	// What it must not change is which results each window has.
	perWindow := func(ts []stream.Tuple) map[int64][]string {
		m := map[int64][]string{}
		for _, tp := range ts {
			m[tp.At(1).I] = append(m[tp.At(1).I], tp.String())
		}
		for _, rows := range m {
			sort.Strings(rows)
		}
		return m
	}
	ref := run(ordered)
	alt := run(shuffled)
	if len(ref) != len(alt) {
		t.Fatalf("result cardinality differs: %d vs %d", len(ref), len(alt))
	}
	if reflect.DeepEqual(ref, alt) {
		t.Fatal("the shuffle left the output sequence as it was: the test exercised no disorder")
	}
	if got, want := perWindow(alt), perWindow(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("results per window differ under disorder:\n  %v\nvs\n  %v", got, want)
	}
}

func TestJoinOrderAgnostic(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	type ev struct {
		input int
		t     stream.Tuple
	}
	var evs []ev
	for i := 0; i < 300; i++ {
		seg, ts := r.Int63n(4), int64(r.Intn(4)*100)
		if r.Intn(2) == 0 {
			evs = append(evs, ev{0, probe(seg, ts, 40)})
		} else {
			evs = append(evs, ev{1, sensor(seg, ts, 50)})
		}
	}
	run := func(events []ev) int {
		j := newTestJoin(FeedbackIgnore, false)
		var script []exec.Script
		for _, e := range events {
			script = append(script, exec.Tuples(e.input, e.t))
		}
		return len(exec.Drive(j, append(script, exec.EOS(0), exec.EOS(1))...).Out[0].Tuples())
	}
	ref := run(evs)
	for trial := 0; trial < 5; trial++ {
		alt := append([]ev(nil), evs...)
		r.Shuffle(len(alt), func(i, k int) { alt[i], alt[k] = alt[k], alt[i] })
		if got := run(alt); got != ref {
			t.Fatalf("join cardinality depends on arrival order: %d vs %d", got, ref)
		}
	}
}

// TestFailureInjectionNullStorm floods the imputation plan shape with a
// high failure rate and verifies no nulls leak past IMPUTE.
func TestFailureInjectionNullStorm(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	im := newTestImpute(FeedbackIgnore)
	nulls := 0
	var input []stream.Tuple
	for i := 0; i < 500; i++ {
		if r.Float64() < 0.8 {
			nulls++
			input = append(input, trafficNull(r.Int63n(4), r.Int63n(2), int64(i)*1000))
		} else {
			input = append(input, traffic(r.Int63n(4), r.Int63n(2), int64(i)*1000, 50))
		}
	}
	tr := exec.Drive(im, exec.Tuples(0, input...))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	got := tr.Out[0].Tuples()
	if len(got) != 500 {
		t.Fatalf("tuples lost: %d", len(got))
	}
	for _, tp := range got {
		if tp.At(3).IsNull() {
			t.Fatal("null leaked past IMPUTE")
		}
	}
	imputed, _, passed := im.Stats()
	if imputed != int64(nulls) || passed != int64(500-nulls) {
		t.Errorf("accounting: imputed=%d passed=%d nulls=%d", imputed, passed, nulls)
	}
}

// TestBurstyRatesThroughPace verifies PACE under alternating burst/quiet
// phases: drops concentrate in the laggard's bursts, and the high
// watermark never regresses.
func TestBurstyRatesThroughPace(t *testing.T) {
	p := &Pace{Schema: trafficSchema, K: 2, TsAttr: 2, Tolerance: 50_000}
	var script []exec.Script
	// Fast input: steady progress.
	for i := int64(0); i < 100; i++ {
		script = append(script, exec.Tuples(0, traffic(1, 1, i*10_000, 50)))
	}
	// Slow input: a burst of stale tuples, then caught-up tuples.
	var dropped0, droppedStale int64
	script = append(script, exec.Call(func(*exec.Trace) { dropped0 = p.InputStats()[1].Dropped }))
	for i := int64(0); i < 20; i++ {
		script = append(script, exec.Tuples(1, traffic(2, 1, i*1000, 60))) // all ≪ hw−tolerance
	}
	script = append(script, exec.Call(func(*exec.Trace) { droppedStale = p.InputStats()[1].Dropped - dropped0 }))
	for i := int64(95); i < 100; i++ {
		script = append(script, exec.Tuples(1, traffic(2, 1, i*10_000, 60))) // near the live edge
	}
	var st []PaceInputStats
	var hwSet bool
	var hw int64
	script = append(script, exec.Call(func(*exec.Trace) { st, hwSet, hw = p.InputStats(), p.hwSet, p.hw }))
	if tr := exec.Drive(p, script...); tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if droppedStale != 20 {
		t.Errorf("stale burst: %d dropped, want 20", droppedStale)
	}
	if st[1].Passed != 5 {
		t.Errorf("caught-up tuples must pass: %+v", st)
	}
	if !hwSet || hw != 99*10_000 {
		t.Errorf("hw = %d", hw)
	}
}

// TestGuardsBoundedUnderFeedbackStorm: repeated feedback on a delimited
// attribute must not accumulate guards (§4.4 supportability in practice).
func TestGuardsBoundedUnderFeedbackStorm(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit}
	var script []exec.Script
	for i := int64(1); i <= 200; i++ {
		script = append(script, exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(i*1000))))))
		if i%2 == 0 {
			script = append(script, exec.Punct(0, tsPunct(i*1000)))
		}
	}
	if tr := exec.Drive(s, script...); tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if active := s.guards.Active(); active > 1 {
		t.Errorf("guards accumulated: %d active (subsumption + expiration must bound them)", active)
	}
}
