package plan_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

var readings = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

// decidingSink counts arrivals per segment and, after 50 tuples, decides
// segment 2 is of no further use and says so upstream as assumed feedback.
//
//pace:stateless example sink; its counters only steer this example's feedback moment
type decidingSink struct {
	exec.Base
	seen   int
	perSeg [3]int64
}

func (s *decidingSink) Name() string                { return "deciding-sink" }
func (s *decidingSink) InSchemas() []stream.Schema  { return []stream.Schema{readings} }
func (s *decidingSink) OutSchemas() []stream.Schema { return nil }

func (s *decidingSink) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	s.perSeg[t.At(0).AsInt()]++
	if s.seen++; s.seen == 50 {
		fb := core.NewAssumed(punct.OnAttr(readings.Arity(), 0, punct.Eq(stream.Int(2))))
		fmt.Printf("sink: issuing feedback %v after 50 tuples\n", fb)
		ctx.SendFeedback(0, fb)
	}
	return nil
}

// Feedback punctuation end to end on a three-operator plan: a source of
// sensor readings feeds a filter feeding a sink. The sink's assumed
// feedback ¬[2, *, *] reaches the filter, which relays it; the
// feedback-aware source then stops generating segment 2 altogether.
func Example() {
	// 3000 readings round-robin across segments 0, 1, 2.
	var tuples []stream.Tuple
	for i := 0; i < 3000; i++ {
		tuples = append(tuples, stream.NewTuple(
			stream.Int(int64(i%3)),
			stream.TimeMicros(int64(i)*1000),
			stream.Float(55+float64(i%10)),
		).WithSeq(int64(i)))
	}
	src := exec.NewSliceSource("sensors", readings, tuples...)
	src.Mode = core.ModeExploit
	src.BatchSize = 8
	filter := &op.Select{
		OpName:    "filter",
		Schema:    readings,
		Cond:      func(t stream.Tuple) bool { return t.At(2).AsFloat() < 100 },
		Mode:      op.FeedbackExploit,
		Propagate: true,
	}
	sink := &decidingSink{}

	b := plan.New()
	// Small pages: the relayed feedback reaches the source within a few
	// readings of the sink's decision.
	b.Graph().SetQueueOptions(queue.Options{PageSize: 8, Depth: 2})
	b.Source(src).Through(filter).Into(sink)
	if err := b.Run(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("source: %d tuples suppressed before generation\n", src.Suppressed())
	fmt.Printf("sink: segment counts %v\n", sink.perSeg)
	// Output:
	// sink: issuing feedback ¬[2, *, *] after 50 tuples
	// source: 982 tuples suppressed before generation
	// sink: segment counts [1000 1000 18]
}
