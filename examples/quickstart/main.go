// Quickstart: a three-operator plan demonstrating feedback punctuation
// end to end.
//
// A sensor source feeds a filter feeding a sink. After seeing a few
// readings, the sink decides readings from segment 2 are of no further use
// and sends assumed feedback (¬[2, *, *]) upstream. The filter adds the
// pattern to its condition and relays the feedback; the feedback-aware
// source stops generating the subset altogether.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

var schema = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

// decidingSink counts arrivals per segment and, after 50 tuples, issues
// assumed feedback for segment 2.
//
//pace:stateless example sink; its counters only steer this demo's feedback moment
type decidingSink struct {
	exec.Base
	seen     atomic.Int64
	perSeg   [3]int64
	feedback bool
}

func (s *decidingSink) Name() string                { return "deciding-sink" }
func (s *decidingSink) InSchemas() []stream.Schema  { return []stream.Schema{schema} }
func (s *decidingSink) OutSchemas() []stream.Schema { return nil }

func (s *decidingSink) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	s.perSeg[t.At(0).AsInt()%3]++
	if s.seen.Add(1) == 50 && !s.feedback {
		s.feedback = true
		fb := core.NewAssumed(punct.OnAttr(schema.Arity(), 0, punct.Eq(stream.Int(2))))
		fmt.Printf("sink: issuing feedback %v after 50 tuples\n", fb)
		ctx.SendFeedback(0, fb)
	}
	return nil
}

func main() {
	// 3000 readings round-robin across segments 0, 1, 2.
	var tuples []stream.Tuple
	for i := 0; i < 3000; i++ {
		tuples = append(tuples, stream.NewTuple(
			stream.Int(int64(i%3)),
			stream.TimeMicros(int64(i)*1000),
			stream.Float(55+float64(i%10)),
		).WithSeq(int64(i)))
	}
	src := exec.NewSliceSource("sensors", schema, tuples...)
	src.FeedbackAware = true
	src.BatchSize = 8

	filter := &op.Select{
		OpName:    "filter",
		Schema:    schema,
		Cond:      func(t stream.Tuple) bool { return t.At(2).AsFloat() < 100 },
		Mode:      op.FeedbackExploit,
		Propagate: true,
	}
	sink := &decidingSink{}

	b := plan.New()
	// Small pages and shallow queues: backpressure keeps the source only
	// slightly ahead of the sink, so the relayed feedback arrives while
	// most of the stream is still ungenerated.
	b.Graph().SetQueueOptions(queue.Options{PageSize: 8, Depth: 2})
	b.Source(src).Through(filter).Into(sink)
	if err := b.Run(); err != nil {
		log.Fatal(err)
	}

	in, out, suppressed := filter.Stats()
	fmt.Printf("filter: %d in, %d out, %d suppressed by the feedback guard\n", in, out, suppressed)
	fmt.Printf("source: %d tuples suppressed before generation\n", src.Skipped())
	fmt.Printf("sink:   segment counts %v (segment 2 stops shortly after feedback)\n", sink.perSeg)
}
