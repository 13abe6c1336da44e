package gen

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

func TestTrafficSourceShape(t *testing.T) {
	src := &TrafficSource{Config: TrafficConfig{
		Segments:            3,
		DetectorsPerSegment: 4,
		ReportPeriod:        20_000_000,
		Duration:            60_000_000, // 3 rounds
		Seed:                1,
	}}
	tr := exec.DriveSource(src)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	tuples := tr.Out[0].Tuples()
	want := 3 * 4 * 3 // segments × detectors × rounds
	if len(tuples) != want {
		t.Fatalf("emitted %d, want %d", len(tuples), want)
	}
	// Timestamps are non-decreasing and punctuation-covered.
	var last int64 = -1
	for _, tp := range tuples {
		ts := tp.At(2).Micros()
		if ts < last {
			t.Fatal("timestamps must be non-decreasing")
		}
		last = ts
	}
	if len(tr.Out[0].Items()) == len(tr.Out[0].Tuples()) {
		t.Fatal("source must punctuate progress")
	}
	// Punctuation truthfulness: after punct [ts < v], no tuple ts < v.
	items := tr.Out[0].Items()
	var wm int64 = -1
	for _, it := range items {
		switch it.Kind {
		case queue.ItemPunct:
			pr := it.Punct.Pattern.Pred(2)
			if pr.Op != punct.LT {
				t.Fatalf("unexpected punct shape: %v", it.Punct)
			}
			if pr.Val.Micros() > wm {
				wm = pr.Val.Micros()
			}
		case queue.ItemTuple:
			if ts := it.Tuple.At(2).Micros(); ts < wm {
				t.Fatalf("tuple at %d violates punctuation %d", ts, wm)
			}
		}
	}
}

func TestTrafficSourceNullRate(t *testing.T) {
	src := &TrafficSource{Config: TrafficConfig{
		Segments:            2,
		DetectorsPerSegment: 50,
		ReportPeriod:        20_000_000,
		Duration:            20_000_000 * 50,
		NullRate:            0.3,
		Seed:                2,
	}}
	tr := exec.DriveSource(src)
	tuples := tr.Out[0].Tuples()
	nulls := 0
	for _, tp := range tuples {
		if tp.At(3).IsNull() {
			nulls++
		}
	}
	frac := float64(nulls) / float64(len(tuples))
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("null fraction %.3f, want ≈ 0.3", frac)
	}
}

func TestTrafficSourceDeterministic(t *testing.T) {
	run := func() []stream.Tuple {
		src := &TrafficSource{Config: TrafficConfig{
			Segments: 2, DetectorsPerSegment: 3,
			ReportPeriod: 20_000_000, Duration: 100_000_000,
			NullRate: 0.1, Noise: 2, Seed: 42,
		}}
		tr := exec.DriveSource(src)
		return tr.Out[0].Tuples()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("same seed must give same length")
	}
	for i := range a {
		if !slices.EqualFunc(a[i].Values, b[i].Values, stream.Value.Equal) {
			t.Fatalf("tuple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTrafficSourceFeedbackSuppression(t *testing.T) {
	src := &TrafficSource{Config: TrafficConfig{
		Segments: 3, DetectorsPerSegment: 2,
		ReportPeriod: 20_000_000, Duration: 200_000_000,
		Seed: 3,
	}}
	src.Mode = core.ModeExploit
	tr := exec.DriveSource(src, core.NewAssumed(punct.OnAttr(4, 0, punct.Eq(stream.Int(1)))))
	for _, tp := range tr.Out[0].Tuples() {
		if tp.At(0).AsInt() == 1 {
			t.Fatal("suppressed segment must not be generated")
		}
	}
	if src.Suppressed() == 0 {
		t.Error("suppression counter must advance")
	}
}

func TestProbeSourceCongestionDensity(t *testing.T) {
	// Rush hour (8 am) must produce more probes than free flow (3 am):
	// probe density scales inversely with speed.
	run := func(startHour int64) int {
		src := &ProbeSource{Config: ProbeConfig{
			Segments: 4, VehiclesPerPeriod: 3,
			Period: 20_000_000, Duration: 600_000_000,
			Start: startHour * 3600 * 1_000_000, Seed: 4,
		}}
		tr := exec.DriveSource(src)
		return len(tr.Out[0].Tuples())
	}
	night, rush := run(3), run(8)
	if rush <= night {
		t.Errorf("rush-hour probes (%d) must exceed night probes (%d)", rush, night)
	}
}

func TestProbeSourcePunctuationTruthful(t *testing.T) {
	src := &ProbeSource{Config: ProbeConfig{
		Segments: 3, Period: 20_000_000, Duration: 200_000_000, Seed: 5,
	}}
	tr := exec.DriveSource(src)
	var wm int64 = -1
	for _, it := range tr.Out[0].Items() {
		switch it.Kind {
		case queue.ItemPunct:
			if v := it.Punct.Pattern.Pred(1).Val.Micros(); v > wm {
				wm = v
			}
		case queue.ItemTuple:
			if ts := it.Tuple.At(1).Micros(); ts < wm {
				t.Fatalf("probe at %d violates punctuation %d", ts, wm)
			}
		}
	}
}

func TestTickSourceRandomWalk(t *testing.T) {
	src := &TickSource{Config: TickConfig{
		Pairs:                 []string{"EUR/USD", "USD/JPY"},
		TicksPerPairPerSecond: 5,
		Duration:              10_000_000,
		Seed:                  6,
	}}
	tr := exec.DriveSource(src)
	tuples := tr.Out[0].Tuples()
	if len(tuples) != 2*5*10 {
		t.Fatalf("ticks: %d", len(tuples))
	}
	pairs := map[string]bool{}
	for _, tp := range tuples {
		pairs[tp.At(0).AsString()] = true
		if r := tp.At(2).AsFloat(); r <= 0 {
			t.Fatal("rates must stay positive")
		}
	}
	if len(pairs) != 2 {
		t.Errorf("pairs seen: %v", pairs)
	}
}

func TestImputationStreamAlternates(t *testing.T) {
	items := ImputationStream(10, 0, 1000, 4)
	tuples := 0
	puncts := 0
	for _, it := range items {
		switch it.Kind {
		case queue.ItemTuple:
			isNull := it.Tuple.At(3).IsNull()
			if (it.Tuple.Seq%2 == 1) != isNull {
				t.Fatalf("alternation broken at seq %d", it.Tuple.Seq)
			}
			tuples++
		case queue.ItemPunct:
			puncts++
		}
	}
	if tuples != 10 || puncts != 2 {
		t.Errorf("tuples=%d puncts=%d", tuples, puncts)
	}
}

func TestRatedSourcePacing(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	items := ImputationStream(500, 0, 1000, 0)
	src := &RatedSource{
		SourceName: "rated", Schema: TrafficSchema,
		Items: items, PerSecond: 5000,
	}
	start := nowMillis()
	tr := exec.DriveSource(src)
	elapsed := nowMillis() - start
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if len(tr.Out[0].Tuples()) != 500 {
		t.Fatalf("emitted %d", len(tr.Out[0].Tuples()))
	}
	// 500 items at 5000/s ≈ 100 ms; allow generous slack both ways.
	if elapsed < 60 || elapsed > 1000 {
		t.Errorf("pacing took %d ms, want ≈ 100 ms", elapsed)
	}
}

func nowMillis() int64 {
	return time.Now().UnixMilli()
}
