// Checkpoint & recovery: crash a running partitioned aggregate plan and
// resume it from a punctuation-aligned snapshot on disk.
//
// The plan is the speed-map core: traffic readings, hash-partitioned by
// segment across two aggregate replicas, merged back with punctuation
// alignment. plan.Deploy runs it under periodic checkpoints — the protocol a
// plan spanning processes uses, here with no followers — and each
// consistent cut (operator state, guard tables, the source's replay
// position, the sink's record) is written to a directory and committed.
// After three commits the plan is killed; redeployed, it restores the newest
// committed cut and finishes with output identical to an uninterrupted run.
//
// Run with: go run ./examples/checkpoint
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/snapshot"
	"repro/internal/window"
	"repro/internal/work"
)

func buildPlan() (*plan.Builder, *exec.Collector) {
	b := plan.New()
	sink := b.Source(&gen.TrafficSource{Config: gen.TrafficConfig{
		Segments: 9, DetectorsPerSegment: 10, Duration: 20 * 60_000_000, Seed: 7,
		// Cost paces ingest (~200µs a reading): checkpoints land mid-stream.
		Cost: work.UnitsFor(200 * time.Microsecond),
	}}).Parallel("part", 2, []string{"segment"}, func(s plan.Stream) plan.Stream {
		return s.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
			window.Tumbling(60_000_000), "avg_speed")
	}).Collect("speedmap")
	return b, sink
}

// run deploys the plan over store and runs it to its end, or kills it once
// killAt epochs are committed (0 = never).
func run(store snapshot.Backend, killAt int64) (*plan.Deployment, *exec.Collector) {
	b, sink := buildPlan()
	d, err := plan.Deploy(b, plan.Coordinator, store, nil)
	if err != nil {
		log.Fatal(err)
	}
	if killAt > 0 {
		go func() {
			for d.Committed() < killAt {
				time.Sleep(time.Millisecond)
			}
			d.Kill()
		}()
	}
	if err, _ := d.Run(exec.CheckpointPolicy{Interval: 20 * time.Millisecond}, 0); (killAt > 0) != errors.Is(err, exec.ErrKilled) {
		log.Fatalf("run ended with %v, kill after epoch %d", err, killAt)
	}
	return d, sink
}

func main() {
	dir, err := os.MkdirTemp("", "speedmap-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := snapshot.NewDir(dir)
	if err != nil {
		log.Fatal(err)
	}

	crashed, sink := run(store, 3)
	fmt.Printf("crash: plan killed mid-stream after committing epoch %d (results so far: %d)\n",
		crashed.Committed(), sink.Count())
	recovered, sink := run(store, 0)
	fmt.Printf("recovery: restored epoch %d from disk and finished (final results: %d)\n",
		recovered.Restored, sink.Count())

	b, ref := buildPlan()
	if err := b.Run(); err != nil {
		log.Fatal(err)
	}
	if !slices.Equal(sink.Lines(), ref.Lines()) {
		log.Fatalf("recovered run produced %d results, uninterrupted %d, and they differ", sink.Count(), ref.Count())
	}
	fmt.Printf("verified: %d results canonically identical to an uninterrupted run (0 lost, 0 duplicated)\n", ref.Count())
}
