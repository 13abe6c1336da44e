package op

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// The OOP architecture's core promise: operator results do not depend on
// physical arrival order, only on punctuation. These tests shuffle inputs
// within punctuation epochs and require identical (set-equal) results.

func shuffleWithinEpochs(r *rand.Rand, tuples []stream.Tuple, epochUS int64, tsAttr int) []stream.Tuple {
	byEpoch := map[int64][]stream.Tuple{}
	var order []int64
	for _, t := range tuples {
		e := t.At(tsAttr).Micros() / epochUS
		if len(byEpoch[e]) == 0 {
			order = append(order, e)
		}
		byEpoch[e] = append(byEpoch[e], t)
	}
	var out []stream.Tuple
	for _, e := range order {
		batch := byEpoch[e]
		r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		out = append(out, batch...)
	}
	return out
}

func TestAggregateOrderAgnostic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const epoch = int64(60_000_000)
	var input []stream.Tuple
	for i := 0; i < 600; i++ {
		input = append(input, traffic(r.Int63n(4), r.Int63n(3), r.Int63n(5*epoch), 20+float64(r.Intn(60))))
	}
	run := func(tuples []stream.Tuple) []stream.Tuple {
		a := &Aggregate{
			In: trafficSchema, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3,
			GroupBy: []int{0}, Window: window.Tumbling(epoch),
		}
		h := exec.NewHarness(a)
		// Feed epoch by epoch, punctuating between epochs (disorder is
		// confined within epochs, so punctuation stays truthful).
		lastEpoch := int64(-1)
		for _, tp := range tuples {
			e := tp.At(2).Micros() / epoch
			if lastEpoch >= 0 && e != lastEpoch {
				h.Punct(0, tsPunct(lastEpoch*epoch+epoch-1))
			}
			lastEpoch = e
			h.Tuple(0, tp)
		}
		h.EOS(0)
		if h.Err() != nil {
			t.Fatal(h.Err())
		}
		return h.OutTuples(0)
	}
	// Sort input by epoch first so punctuation boundaries are honest.
	ordered := shuffleWithinEpochs(rand.New(rand.NewSource(1)), input, epoch, 2)
	shuffled := shuffleWithinEpochs(r, input, epoch, 2)
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
		h := exec.NewHarness(j)
		for _, e := range events {
			h.Tuple(e.input, e.t)
		}
		h.EOS(0).EOS(1)
		return len(h.OutTuples(0))
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
	h := exec.NewHarness(im)
	nulls := 0
	for i := 0; i < 500; i++ {
		if r.Float64() < 0.8 {
			nulls++
			h.Tuple(0, trafficNull(r.Int63n(4), r.Int63n(2), int64(i)*1000))
		} else {
			h.Tuple(0, traffic(r.Int63n(4), r.Int63n(2), int64(i)*1000, 50))
		}
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	got := h.OutTuples(0)
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
	h := exec.NewHarness(p)
	// Fast input: steady progress.
	for i := int64(0); i < 100; i++ {
		h.Tuple(0, traffic(1, 1, i*10_000, 50))
	}
	// Slow input: a burst of stale tuples, then caught-up tuples.
	dropped0 := p.InputStats()[1].Dropped
	for i := int64(0); i < 20; i++ {
		h.Tuple(1, traffic(2, 1, i*1000, 60)) // all ≪ hw−tolerance
	}
	droppedStale := p.InputStats()[1].Dropped - dropped0
	if droppedStale != 20 {
		t.Errorf("stale burst: %d dropped, want 20", droppedStale)
	}
	for i := int64(95); i < 100; i++ {
		h.Tuple(1, traffic(2, 1, i*10_000, 60)) // near the live edge
	}
	st := p.InputStats()
	if st[1].Passed != 5 {
		t.Errorf("caught-up tuples must pass: %+v", st)
	}
	if !p.hwSet || p.hw != 99*10_000 {
		t.Errorf("hw = %d", p.hw)
	}
}

// TestGuardsBoundedUnderFeedbackStorm: repeated feedback on a delimited
// attribute must not accumulate guards (§4.4 supportability in practice).
func TestGuardsBoundedUnderFeedbackStorm(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit}
	h := exec.NewHarness(s)
	for i := int64(1); i <= 200; i++ {
		h.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(i*1000)))))
		if i%2 == 0 {
			h.Punct(0, tsPunct(i*1000))
		}
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if active := s.guards.Active(); active > 1 {
		t.Errorf("guards accumulated: %d active (subsumption + expiration must bound them)", active)
	}
}
