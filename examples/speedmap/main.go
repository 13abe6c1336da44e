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

	"repro"
	"repro/internal/gen"
)

const period20s = int64(20_000_000)

func main() {
	feedback := flag.Bool("feedback", true, "enable congestion feedback to the vehicle branch")
	hours := flag.Int("hours", 1, "hours of traffic")
	flag.Parse()

	mode := repro.FeedbackIgnore
	if *feedback {
		mode = repro.FeedbackExploit
	}

	// The run covers the morning-rush onset (6:30 onward): early windows
	// are uncongested everywhere (feedback suppresses the whole vehicle
	// branch), later windows congest segment by segment.
	start := int64(6*3600+1800) * 1_000_000

	// Vehicle branch: probes → clean → per-(segment, 20 s) average.
	probes := &gen.ProbeSource{Config: gen.ProbeConfig{
		Segments:          9,
		VehiclesPerPeriod: 6,
		Period:            period20s,
		Duration:          int64(*hours) * 3600 * 1_000_000,
		Start:             start,
		NoiseRate:         0.05,
		Noise:             4,
		Seed:              1,
		FeedbackAware:     *feedback,
	}}
	clean := &repro.Select{
		OpName: "clean",
		Schema: gen.ProbeSchema,
		Cond: func(t repro.Tuple) bool {
			v := t.At(2).AsFloat()
			return v >= 0 && v <= 100 // drop corrupted GPS readings
		},
		Cost:      20,
		Mode:      mode,
		Propagate: *feedback,
	}
	agg := &repro.Aggregate{
		OpName: "aggregate", In: gen.ProbeSchema, Kind: repro.AggAvg,
		TsAttr: 1, ValAttr: 2, GroupBy: []int{0},
		Window: repro.Tumbling(period20s), ValueName: "probe_speed",
		Cost: 20, Mode: mode, Propagate: *feedback,
	}
	aggOut := agg.OutSchemas()[0] // (segment, wstart, probe_speed)

	// Sensor branch: one report per segment per 20 s window.
	sensors := &gen.TrafficSource{Config: gen.TrafficConfig{
		Segments:            9,
		DetectorsPerSegment: 1,
		ReportPeriod:        period20s,
		Duration:            int64(*hours) * 3600 * 1_000_000,
		Start:               start,
		Noise:               2,
		Seed:                2,
	}}
	// Align the sensor schema with the join keys: (segment, wstart).
	sensorKey := &repro.Project{
		OpName: "sensor-key", In: gen.TrafficSchema,
		Keep: []string{"segment", "ts", "speed"},
	}
	sensorSchema := sensorKey.OutSchemas()[0]

	// Outer join: every sensor reading appears; aggregated vehicle speed
	// attaches only for congested segments (sensor speed < 45).
	join := &repro.Join{
		OpName:   "speedmap-join",
		Left:     sensorSchema, // (segment, ts, speed)
		Right:    aggOut,       // (segment, wstart, probe_speed)
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
		LeftTs: 1, RightTs: 1,
		Residual: func(l, r repro.Tuple) bool {
			return l.At(2).AsFloat() < 45 // congested: use probe data
		},
		LeftOuter: true,
		Mode:      mode,
	}
	var adaptiveSent int64
	if *feedback {
		// Adaptive discovery (§3.3): an uncongested sensor reading means
		// the matching vehicle window is useless — tell the vehicle
		// branch (input 1).
		join.Adaptive = func(input int, t repro.Tuple, send func(int, repro.Feedback)) {
			if input != 0 || t.At(2).IsNull() || t.At(2).AsFloat() < 45 {
				return
			}
			seg, ts := t.At(0), t.At(1).Micros()
			wstart := (ts / period20s) * period20s
			pat := repro.NewPattern(
				repro.Eq(seg),
				repro.Eq(repro.TimeMicros(wstart)),
				repro.Wild,
			)
			adaptiveSent++
			send(1, repro.NewAssumed(pat))
		}
	}

	sink := repro.NewCollector("map", join.OutSchemas()[0])
	sink.Discard = true

	g := repro.NewGraph()
	// Shallow queues keep the two branches advancing in rough lockstep,
	// so the join's adaptive feedback lands while the matching vehicle
	// windows are still upstream.
	g.SetQueueOptions(repro.QueueOptions{PageSize: 8, Depth: 2})
	pn := g.AddSource(probes)
	cn := g.Add(clean, repro.From(pn))
	an := g.Add(agg, repro.From(cn))
	sn := g.AddSource(sensors)
	kn := g.Add(sensorKey, repro.From(sn))
	jn := g.Add(join, repro.From(kn), repro.From(an))
	g.Add(sink, repro.From(jn))

	if err := g.Run(); err != nil {
		log.Fatal(err)
	}

	js := join.Stats()
	as := agg.Stats()
	_, _, cleanSup := clean.Stats()
	emitted, probeSkipped := probes.Stats()
	fmt.Printf("map rows: %d joined with probe data, %d sensor-only (outer)\n", js.Emitted, js.OuterEmitted)
	fmt.Printf("vehicle branch: %d probe readings generated, %d suppressed at source\n", emitted, probeSkipped)
	fmt.Printf("cleaner: %d readings suppressed by feedback before cleaning cost\n", cleanSup)
	fmt.Printf("aggregate: %d window-folds avoided, %d groups purged\n", as.InSuppressed, as.Purged)
	fmt.Printf("join: %d adaptive feedback punctuations sent, %d probe aggregates suppressed at its input\n",
		adaptiveSent, js.SuppressedIn)
	if !*feedback {
		fmt.Println("\nRe-run with -feedback=true to see the vehicle branch stop working on uncongested segments.")
	}
}
