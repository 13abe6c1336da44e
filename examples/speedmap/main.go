// Speedmap: the paper's Figure 1(b) plan — the motivating scenario.
//
//	vehicle (probe) data → CLEAN → AGGREGATE(segment, 20 s) ─┐
//	fixed-sensor data ───────────────────────────── OUTER JOIN → map
//
// Vehicle readings are noisy and must be cleaned and aggregated before the
// join; the join pairs each fixed-sensor reading with the aggregated
// vehicle speed when the sensor reports congestion (speed < 45 mph), and
// passes sensor readings through alone otherwise (left outer join).
//
// The feedback: cleaning and aggregating vehicle data for *uncongested*
// segments is wasted work. The join discovers congestion state from the
// sensor stream (the paper's "adaptive" feedback source) and sends assumed
// feedback — a two-dimensional (segment, time) subset — up the vehicle
// branch, where the aggregate and the cleaner suppress matching readings.
//
// Run with: go run ./examples/speedmap [-feedback=false]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	feedback := flag.Bool("feedback", true, "enable congestion feedback to the vehicle branch")
	hours := flag.Int("hours", 1, "hours of traffic")
	flag.Parse()

	// The plan is experiments.RunFigure1b; the run covers the morning-rush
	// onset (6:30 onward): early windows are uncongested everywhere (feedback
	// suppresses the whole vehicle branch), later windows congest segment by
	// segment.
	r, err := experiments.RunFigure1b(*feedback, *hours)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("map rows: %d joined with probe data, %d sensor-only (outer)\n", r.Joined, r.SensorOnly)
	fmt.Printf("vehicle branch: %d probe readings suppressed at source, %d reached the cleaner\n", r.ProbesSkipped, r.CleanerInput)
	fmt.Printf("cleaner: %d readings suppressed by feedback before cleaning cost\n", r.CleanerSkipped)
	fmt.Printf("aggregate: %d window-folds avoided\n", r.AggFoldsSkipped)
	fmt.Printf("join: %d adaptive feedback punctuations sent\n", r.AdaptiveSent)
	if !*feedback {
		fmt.Println("\nRe-run with -feedback=true to see the vehicle branch stop working on uncongested segments.")
	}
}
