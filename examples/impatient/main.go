// Impatient: desired punctuation (§3.4) with IMPATIENT JOIN.
//
// Vehicle reports (scarce, expensive probes) arrive on the join's left
// input; fixed-sensor readings are plentiful on the right, buffered behind
// a PRIORITIZE stage. For every (period, segment) it sees vehicle data
// for, the join sends desired feedback — ?[period, segment, *] — upstream;
// PRIORITIZE moves matching sensor readings to the front of its buffer so
// the join can produce those results first.
//
// Desired punctuation never changes the result set, only production order:
// the demo verifies both.
//
// Run with: go run ./examples/impatient
package main

import (
	"fmt"
	"log"

	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/queue"
	"repro/internal/stream"
)

var (
	vehicleSchema = stream.MustSchema(
		stream.F("period", stream.KindInt),
		stream.F("segment", stream.KindInt),
		stream.F("vspeed", stream.KindFloat),
	)
	sensorSchema = stream.MustSchema(
		stream.F("period", stream.KindInt),
		stream.F("segment", stream.KindInt),
		stream.F("sspeed", stream.KindFloat),
	)
)

func main() {
	// Sensor data: every (period, segment) cell for 40 periods × 9
	// segments, in period-major order.
	var sensors []stream.Tuple
	for p := int64(0); p < 40; p++ {
		for s := int64(0); s < 9; s++ {
			sensors = append(sensors, stream.NewTuple(
				stream.Int(p), stream.Int(s), stream.Float(50+float64(s))))
		}
	}
	// Vehicle data: a single probe car driving segment 3, reporting in
	// periods 20..29 — the subset the join will be impatient about.
	var vehicles []stream.Tuple
	for p := int64(20); p < 30; p++ {
		vehicles = append(vehicles, stream.NewTuple(
			stream.Int(p), stream.Int(3), stream.Float(31)))
	}

	vsrc := exec.NewSliceSource("vehicles", vehicleSchema, vehicles...)
	vsrc.BatchSize = 1
	ssrc := exec.NewSliceSource("sensors", sensorSchema, sensors...)
	ssrc.BatchSize = 4

	prio := &op.Prioritize{
		OpName: "prioritize", Schema: sensorSchema,
		BufferCap: 1000, Mode: op.FeedbackExploit,
	}
	join := &op.Join{
		OpName: "impatient-join",
		Left:   vehicleSchema, Right: sensorSchema,
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
		LeftTs: 0, RightTs: 0,
		Impatient: true, // ?[period, segment, *] toward the sensor side
		Mode:      op.FeedbackExploit,
	}

	b := plan.New()
	b.Graph().SetQueueOptions(queue.Options{PageSize: 4, Depth: 2})
	probes := b.Source(vsrc)
	buffered := b.Source(ssrc).Through(prio)
	sink := probes.Through(join, buffered).Collect("sink")
	var order []int64 // join-output period order
	sink.OnTuple = func(t stream.Tuple) { order = append(order, t.At(0).AsInt()) }
	if err := b.Run(); err != nil {
		log.Fatal(err)
	}

	_, _, promoted, _ := prio.Stats()
	js := join.Stats()
	fmt.Printf("join produced %d results for the probe car's cells\n", js.Emitted)
	fmt.Printf("desired punctuations sent by the join: %d\n", js.ImpatientSent)
	fmt.Printf("sensor readings promoted past the buffer: %d\n", promoted)
	fmt.Printf("result production order (periods): %v\n", order)
	fmt.Println("\nWith promotion, results for later periods can appear before the")
	fmt.Println("buffered earlier sensor data drains — production ORDER changed,")
	fmt.Println("result SET did not (the desired-punctuation contract).")
}
