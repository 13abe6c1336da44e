package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// reportSchema carries both kinds of traffic report; kind tells them apart.
var reportSchema = stream.MustSchema(
	stream.F("kind", stream.KindInt),
	stream.F("period", stream.KindInt),
	stream.F("segment", stream.KindInt),
	stream.F("speed", stream.KindFloat),
)

const vehicle, sensor = 0, 1

// probeCells is the subset the impatient join asks for, over its output
// (period, segment, vspeed, sspeed): the probe car's segment.
var probeCells = core.NewDesired(punct.OnAttr(4, 1, punct.Eq(stream.Int(3))))

// Desired runs §3.4's desired punctuation, the impatient join, and writes
// its report. Vehicle reports (scarce, expensive probes) and fixed-sensor
// readings (plentiful) arrive on one feed, vehicle reports first, buffered
// behind PRIORITIZE; a SPLIT on the report kind feeds the join, vehicles on
// the left and sensors on the right. For every (period, segment) it has
// vehicle data for, the join sends ?[period, segment, *] toward the sensors,
// and PRIORITIZE moves matching readings to the front of its buffer.
// Desired punctuation changes only the order results are produced in, never
// the set: core.CheckDesired holds the run to the one that ignores feedback.
// The compiled plan runs on one goroutine (the selections are the join's
// input prefixes, so the join is a fan-in of one chain, DESIGN.md §2.5), so
// the report is the same on every run.
func Desired(w io.Writer) error {
	feed := trafficReports()
	reference, _, _, err := runDesired(feed, op.FeedbackIgnore)
	if err != nil {
		return err
	}
	actual, prio, join, err := runDesired(feed, op.FeedbackExploit)
	if err != nil {
		return err
	}
	_, _, promoted, _ := prio.Stats()
	js := join.Stats()
	fmt.Fprintf(w, "join: %d results for the probe car's cells, %d desired punctuations sent\n", js.Emitted, js.ImpatientSent)
	fmt.Fprintf(w, "prioritize: %d sensor readings promoted past the buffer\n", promoted)
	periods := make([]int64, len(actual))
	for i, t := range actual {
		periods[i] = t.At(0).AsInt()
	}
	fmt.Fprintf(w, "result production order (periods): %v\n", periods)
	if rep := core.CheckDesired(reference, actual, probeCells); !rep.OK() {
		fmt.Fprintf(w, "VIOLATION: %d results differ from the run that ignores feedback\n", len(rep.SetChanged))
		return nil
	}
	fmt.Fprintf(w, "core.CheckDesired: the %d results equal those of the run that ignores feedback\n", len(actual))
	fmt.Fprintln(w, "Promotion changes the ORDER results are produced in; the result SET")
	fmt.Fprintln(w, "stays (the desired-punctuation contract).")
	return nil
}

// trafficReports is the feed. Vehicle data first: a single probe car driving
// segment 3, reporting in periods 20..29 — the subset the join will be
// impatient about. Then sensor data: every (period, segment) cell for 40
// periods × 9 segments, in period-major order.
func trafficReports() []stream.Tuple {
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

// runDesired runs the plan, compiled, under one feedback mode and returns
// the join's results in production order, with the two operators for their
// counts.
func runDesired(feed []stream.Tuple, mode op.FeedbackMode) ([]stream.Tuple, *op.Prioritize, *op.Join, error) {
	b := plan.New()
	b.Mode = mode
	// Small pages hand the vehicle reports to the join, and its feedback
	// back, while most sensor readings are still on their way.
	b.Graph().SetQueueOptions(queue.Options{PageSize: 4, Depth: 2})
	prio := &op.Prioritize{OpName: "prioritize", Schema: reportSchema, BufferCap: 64, Mode: mode}
	// Kinds 0 and 1 hash to partitions 0 and 1; the selections keep each
	// input to its kind whatever the routing.
	outs := b.Source(exec.NewSliceSource("reports", reportSchema, feed...)).Through(prio).Split("split", 2, "kind")
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
		return nil, nil, nil, fmt.Errorf("desired run (%v): %w", mode, err)
	}
	return sink.Tuples(), prio, join, nil
}

func kindIs(k int64) func(stream.Tuple) bool {
	return func(t stream.Tuple) bool { return t.At(0).AsInt() == k }
}
