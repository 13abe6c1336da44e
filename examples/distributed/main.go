// Distributed crash-and-recover: a consistent cut across a machine
// boundary.
//
// The paper's case for localized coordination (§2) is the distributed
// setting: control information travels hop by hop between adjacent
// operators, never through a centralized monitor. This example applies the
// same principle to fault tolerance. One plan is written once and placed on
// two parts joined over TCP: the source on the coordinating part, the
// aggregate on "consumer". Each checkpoint's barrier crosses the data
// connection in-band after the tuples that precede the cut, so the consumer
// cuts the same epoch; each part persists its own chain, and the
// coordinating part commits a distributed manifest only after the consumer's
// ack on the control connection. Mid-stream BOTH parts are killed;
// redeployed, they restore from the last committed manifest and finish, with
// output canonically identical to an uninterrupted run.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
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
	}}).Place("consumer").Parallel("part", 2, []string{"segment"}, func(s plan.Stream) plan.Stream {
		return s.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
			window.Tumbling(60_000_000), "avg_speed")
	}).Collect("speedmap")
	return b, sink
}

// run deploys both parts over loopback TCP, as two processes would, and runs
// them to their end, or kills both once killAt epochs are committed (0 =
// never). It returns the coordinating part's deployment.
func run(stores map[string]snapshot.Backend, killAt int64) (*plan.Deployment, *exec.Collector) {
	b, sink := buildPlan()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	t := plan.TCP(l.Addr().String())
	l.Close()
	deps := make([]*plan.Deployment, len(b.Parts()))
	errs := make(chan error, len(deps))
	for i, part := range b.Parts() {
		go func() {
			var err error
			deps[i], err = plan.Deploy(b, part, stores[part], t)
			errs <- err
		}()
	}
	for range deps {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}
	if killAt > 0 {
		go func() {
			for deps[0].Committed() < killAt {
				time.Sleep(time.Millisecond)
			}
			for _, d := range deps {
				d.Kill()
			}
		}()
	}
	for _, d := range deps {
		go func() {
			err, _ := d.Run(exec.CheckpointPolicy{Interval: 20 * time.Millisecond, Retain: 4}, 0)
			errs <- err
		}()
	}
	for range deps {
		if err := <-errs; err != nil && killAt == 0 {
			log.Fatal(err)
		}
	}
	if deps[0].Committed() < killAt {
		log.Fatalf("the run ended before epoch %d was committed", killAt)
	}
	return deps[0], sink
}

func main() {
	// Each part's durable storage, surviving the crash.
	stores := map[string]snapshot.Backend{plan.Coordinator: snapshot.NewMemory(), "consumer": snapshot.NewMemory()}

	crashed, _ := run(stores, 2)
	fmt.Printf("crash: both parts killed mid-stream; last committed distributed epoch %d\n", crashed.Committed())
	recovered, sink := run(stores, 0)
	fmt.Printf("recovery: both parts restored from epoch %d and completed (committed through %d, results: %d)\n",
		recovered.Restored, recovered.Committed(), sink.Count())

	// The reference: the same plan uninterrupted, both parts in-process.
	b, ref := buildPlan()
	if err := b.Run(); err != nil {
		log.Fatal(err)
	}
	if !slices.Equal(sink.Lines(), ref.Lines()) {
		log.Fatalf("recovered parts produced %d results, uninterrupted %d, and they differ (gap or duplication)", sink.Count(), ref.Count())
	}
	fmt.Printf("verified: %d results canonically identical to an uninterrupted run (0 lost, 0 duplicated)\n", ref.Count())
}
