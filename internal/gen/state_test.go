package gen

import (
	"errors"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// TestRNGRoundTrip: the serialized generator state resumes the exact
// sequence, including a cached Box–Muller spare.
func TestRNGRoundTrip(t *testing.T) {
	r := newRNG(42)
	for i := 0; i < 100; i++ {
		r.Float64()
		r.NormFloat64() // leaves a spare half the time
	}
	enc := snapshot.NewEncoder()
	r.field().Capture()(enc)
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var r2 rng
	if err := r2.field().Load(snapshot.NewDecoder(blob)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a, b := r.NormFloat64(), r2.NormFloat64(); a != b {
			t.Fatalf("draw %d diverged: %v vs %v", i, a, b)
		}
		if a, b := r.Int63n(97), r2.Int63n(97); a != b {
			t.Fatalf("int draw %d diverged: %v vs %v", i, a, b)
		}
	}
}

// runToEnd executes src → collector to completion and returns the record.
func runToEnd(t *testing.T, src exec.Source) []queue.Item {
	t.Helper()
	sink := exec.NewCollector("sink", src.OutSchemas()[0])
	g := exec.NewGraph()
	id := g.AddSource(src)
	g.Add(sink, exec.From(id))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	return sink.Items()
}

// coordinator wraps g the way a single-process run is checkpointed and
// restored: a coordinator with no followers over one backend.
func coordinator(g *exec.Graph, b snapshot.Backend) *exec.DistCoordinator {
	return exec.NewDistCoordinator(g, "local", snapshot.NewChain(b), snapshot.NewDistLog(b))
}

// runWithMidCheckpoint starts the plan, snapshots once the sink has seen
// minItems, kills the run, restores into src2 → fresh collector, and
// returns the recovered record (pre-cut restored + post-cut regenerated).
func runWithMidCheckpoint(t *testing.T, src1, src2 exec.Source, minItems int64) []queue.Item {
	t.Helper()
	sink1 := exec.NewCollector("sink", src1.OutSchemas()[0])
	// Throttle consumption so the checkpoint lands mid-stream rather than
	// after a fast source has drained.
	sink1.OnTuple = func(stream.Tuple) { time.Sleep(50 * time.Microsecond) }
	g1 := exec.NewGraph()
	id := g1.AddSource(src1)
	g1.Add(sink1, exec.From(id))
	runErr := make(chan error, 1)
	go func() { runErr <- g1.Run() }()
	deadline := time.Now().Add(30 * time.Second)
	for sink1.Count() < minItems {
		select {
		case err := <-runErr:
			t.Fatalf("plan finished before the checkpoint trigger (%v); raise workload or lower minItems", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink stuck at %d/%d", sink1.Count(), minItems)
		}
		time.Sleep(100 * time.Microsecond)
	}
	backend := snapshot.NewMemory()
	if _, err := coordinator(g1, backend).CheckpointOnce(snapshot.CaptureFull); err != nil {
		t.Fatal(err)
	}
	g1.Kill()
	// The stream may have finished cleanly in the window between the
	// checkpoint and the kill; both outcomes leave a valid cut.
	if err := <-runErr; err != nil && !errors.Is(err, exec.ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	sink2 := exec.NewCollector("sink", src2.OutSchemas()[0])
	g2 := exec.NewGraph()
	id2 := g2.AddSource(src2)
	g2.Add(sink2, exec.From(id2))
	if ok, err := coordinator(g2, backend).RestoreCommitted(); err != nil || !ok {
		t.Fatalf("RestoreCommitted: ok=%v err=%v", ok, err)
	}
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	return sink2.Items()
}

func sameItems(t *testing.T, got, want []queue.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered stream has %d items, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind {
			t.Fatalf("item %d kind diverged", i)
		}
		switch want[i].Kind {
		case queue.ItemTuple:
			if !got[i].Tuple.Equal(want[i].Tuple) || got[i].Tuple.Seq != want[i].Tuple.Seq {
				t.Fatalf("item %d diverged: %v vs %v", i, got[i].Tuple, want[i].Tuple)
			}
		case queue.ItemPunct:
			if !got[i].Punct.Pattern.Equal(want[i].Punct.Pattern) {
				t.Fatalf("punct %d diverged", i)
			}
		}
	}
}

// TestTrafficSourceReplayFromPosition: kill→restore mid-stream replays the
// synthetic sensor stream bit-identically (round clock, cursor, RNG state).
func TestTrafficSourceReplayFromPosition(t *testing.T) {
	cfg := TrafficConfig{Segments: 4, DetectorsPerSegment: 6, Duration: 120 * 1_000_000,
		NullRate: 0.3, Noise: 2.5, Seed: 7}
	want := runToEnd(t, &TrafficSource{Config: cfg})
	got := runWithMidCheckpoint(t, &TrafficSource{Config: cfg}, &TrafficSource{Config: cfg}, int64(len(want))/3)
	sameItems(t, got, want)
}

// TestTickSourceReplayFromPosition: the random-walk rates and RNG state
// restore so the tick stream continues identically.
func TestTickSourceReplayFromPosition(t *testing.T) {
	cfg := TickConfig{Duration: 20 * 1_000_000, Seed: 11}
	want := runToEnd(t, &TickSource{Config: cfg})
	got := runWithMidCheckpoint(t, &TickSource{Config: cfg}, &TickSource{Config: cfg}, int64(len(want))/3)
	sameItems(t, got, want)
}

// TestProbeSourceReplayFromPosition covers the Poisson-density vehicle
// generator.
func TestProbeSourceReplayFromPosition(t *testing.T) {
	cfg := ProbeConfig{Segments: 4, Duration: 200 * 1_000_000, Noise: 3, NoiseRate: 0.05, Seed: 3}
	want := runToEnd(t, &ProbeSource{Config: cfg})
	got := runWithMidCheckpoint(t, &ProbeSource{Config: cfg}, &ProbeSource{Config: cfg}, int64(len(want))/3)
	sameItems(t, got, want)
}

// TestRatedSourceReplayFromPosition: the paced replay source recovers its
// cursor (pacing is wall-clock and intentionally not part of the state).
func TestRatedSourceReplayFromPosition(t *testing.T) {
	items := ImputationStream(2000, 0, 1000, 50)
	mk := func() *RatedSource {
		return &RatedSource{SourceName: "rated", Schema: TrafficSchema, Items: items, PerSecond: 200_000}
	}
	want := runToEnd(t, mk())
	got := runWithMidCheckpoint(t, mk(), mk(), 400)
	sameItems(t, got, want)
}
