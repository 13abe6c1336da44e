// Impatient: desired punctuation (§3.4) with IMPATIENT JOIN.
//
// Vehicle reports (scarce, expensive probes) and fixed-sensor readings
// (plentiful) arrive on one feed, vehicle reports first, buffered behind a
// PRIORITIZE stage; a SPLIT on the report kind then feeds the join's two
// inputs, the vehicles on the left and the sensors on the right. For every
// (period, segment) it sees vehicle data for, the join sends desired
// feedback — ?[period, segment, *] — upstream; PRIORITIZE moves matching
// sensor readings to the front of its buffer so the join can produce those
// results first.
//
// Desired punctuation never changes the result set, only production order:
// the demo runs the plan twice, ignoring and exploiting feedback, and checks
// both with core.CheckDesired. The compiled plan runs on one goroutine (the
// selections are the join's input prefixes, so the join is a fan-in of one
// chain, DESIGN.md §2.5), so its output is the same on every run.
//
// Run with: go run ./examples/impatient
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// feedSchema carries both kinds of report; kind tells them apart.
var feedSchema = stream.MustSchema(
	stream.F("kind", stream.KindInt),
	stream.F("period", stream.KindInt),
	stream.F("segment", stream.KindInt),
	stream.F("speed", stream.KindFloat),
)

const vehicle, sensor = 0, 1

func main() {
	feed := reports()
	reference, _, _ := run(feed, op.FeedbackIgnore)
	actual, prio, join := run(feed, op.FeedbackExploit)

	_, _, promoted, _ := prio.Stats()
	js := join.Stats()
	fmt.Printf("join produced %d results for the probe car's cells\n", js.Emitted)
	fmt.Printf("desired punctuations sent by the join: %d\n", js.ImpatientSent)
	fmt.Printf("sensor readings promoted past the buffer: %d\n", promoted)
	fmt.Printf("result production order (periods): %v\n", periods(actual))

	// The subset the join asked for, over its output (period, segment, ...).
	subset := core.NewDesired(punct.OnAttr(4, 1, punct.Eq(stream.Int(3))))
	rep := core.CheckDesired(reference, actual, subset)
	if !rep.OK() {
		fmt.Printf("VIOLATION: %d results differ from the run that ignores feedback\n", len(rep.SetChanged))
		return
	}
	fmt.Printf("VERIFIED: the %d results equal those of the run that ignores feedback\n", len(actual))
	fmt.Println("\nWith promotion, results for later periods can appear before the")
	fmt.Println("buffered earlier sensor data drains — production ORDER changed,")
	fmt.Println("result SET did not (the desired-punctuation contract).")
}

// reports is the feed. Vehicle data first: a single probe car driving
// segment 3, reporting in periods 20..29 — the subset the join will be
// impatient about. Then sensor data: every (period, segment) cell for 40
// periods × 9 segments, in period-major order.
func reports() []stream.Tuple {
	var feed []stream.Tuple
	for p := int64(20); p < 30; p++ {
		feed = append(feed, stream.NewTuple(stream.Int(vehicle), stream.Int(p), stream.Int(3), stream.Float(31)))
	}
	for p := int64(0); p < 40; p++ {
		for s := int64(0); s < 9; s++ {
			feed = append(feed, stream.NewTuple(stream.Int(sensor), stream.Int(p), stream.Int(s), stream.Float(50+float64(s))))
		}
	}
	return feed
}

// run executes the plan under one feedback mode and returns the join's
// results in production order, with the two operators for their counts.
func run(feed []stream.Tuple, mode op.FeedbackMode) ([]stream.Tuple, *op.Prioritize, *op.Join) {
	b := plan.New()
	b.Mode = mode
	// Small pages hand the vehicle reports to the join, and its feedback
	// back, while most sensor readings are still on their way.
	b.Graph().SetQueueOptions(queue.Options{PageSize: 4, Depth: 2})
	prio := &op.Prioritize{OpName: "prioritize", Schema: feedSchema, BufferCap: 64, Mode: mode}
	// Kinds 0 and 1 hash to partitions 0 and 1; the selections keep each
	// input to its kind whatever the routing.
	outs := b.Source(exec.NewSliceSource("reports", feedSchema, feed...)).Through(prio).Split("split", 2, "kind")
	vehicles := outs[0].Select("vehicles", kindIs(vehicle)).
		Map("vehicle-cells", op.Carry("period"), op.Carry("segment"), op.MapAttr{Name: "vspeed", From: "speed"})
	sensors := outs[1].Select("sensors", kindIs(sensor)).
		Map("sensor-cells", op.Carry("period"), op.Carry("segment"), op.MapAttr{Name: "sspeed", From: "speed"})
	join := &op.Join{
		OpName: "impatient-join",
		Left:   vehicles.Schema(), Right: sensors.Schema(),
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
		LeftTs: 0, RightTs: 0,
		Impatient: mode != op.FeedbackIgnore, // ?[period, segment, *] toward the sensor side
		Mode:      mode,
	}
	sink := vehicles.Through(join, sensors).Collect("sink")
	if err := b.Compile().Run(); err != nil {
		log.Fatal(err)
	}
	return sink.Tuples(), prio, join
}

func kindIs(k int64) func(stream.Tuple) bool {
	return func(t stream.Tuple) bool { return t.At(0).AsInt() == k }
}

func periods(ts []stream.Tuple) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.At(0).AsInt()
	}
	return out
}
