package gen

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// RatedSource replays a fixed item sequence at a wall-clock rate, emulating
// a live stream. Experiment 1 needs real arrival pacing: the imputation
// path falls behind *real time*, and PACE's high watermark advances with
// the (fast) clean path, so lateness is a race between arrival rate and
// imputation service time — exactly the paper's setting.
//
// Pacing is deficit-based: each Next emits however many items the elapsed
// wall clock entitles, so sleep jitter does not skew the average rate.
type RatedSource struct {
	exec.Responding
	snapshot.State
	SourceName string
	Schema     stream.Schema
	Items      []queue.Item
	// PerSecond is the target emission rate (items per second).
	PerSecond float64
	// FeedbackAware lets assumed feedback suppress emission.
	//pace:allow-unreached removing it moves the rated source's state golden
	FeedbackAware bool

	pos     int
	start   time.Time
	guards  *core.GuardTable
	skipped int64
}

// Name implements exec.Source.
func (s *RatedSource) Name() string {
	if s.SourceName != "" {
		return s.SourceName
	}
	return "rated-source"
}

// OutSchemas implements exec.Source.
func (s *RatedSource) OutSchemas() []stream.Schema { return []stream.Schema{s.Schema} }

// Open implements exec.Source.
func (s *RatedSource) Open(exec.Context) error {
	s.start = time.Now()
	s.guards = s.BindSource(s.FeedbackAware, s.Schema.Arity())
	// The replay position is the item cursor; the wall-clock anchor is
	// re-derived on restore so the target rate resumes without a burst.
	s.Keep(s.Name(), snapshot.Int(&s.pos), snapshot.Int64(&s.skipped), snapshot.Guards(s.guards), snapshot.Then(s.resume))
	return nil
}

// resume checks a restored position and back-dates the rate anchor, so the
// deficit pacing treats the already-emitted prefix as on schedule instead of
// replaying it as a burst.
func (s *RatedSource) resume() error {
	if s.pos < 0 || s.pos > len(s.Items) {
		return fmt.Errorf("gen: rated source %q: restored position %d outside replay log of %d items (source data changed?)",
			s.Name(), s.pos, len(s.Items))
	}
	if s.PerSecond > 0 {
		s.start = time.Now().Add(-time.Duration(float64(s.pos) / s.PerSecond * float64(time.Second)))
	}
	return nil
}

// Next implements exec.Source.
func (s *RatedSource) Next(ctx exec.Context) (bool, error) {
	if s.pos >= len(s.Items) {
		return false, nil
	}
	due := int(time.Since(s.start).Seconds() * s.PerSecond)
	if due > len(s.Items) {
		due = len(s.Items)
	}
	if s.pos >= due {
		// Ahead of schedule: sleep roughly one inter-arrival gap. The
		// deficit computation absorbs oversleeping.
		time.Sleep(time.Duration(1e9 / s.PerSecond))
		return true, nil
	}
	for s.pos < due {
		it := s.Items[s.pos]
		s.pos++
		switch it.Kind {
		case queue.ItemTuple:
			if s.guards.Suppress(it.Tuple) {
				s.skipped++
				continue
			}
			ctx.Emit(it.Tuple)
		case queue.ItemPunct:
			s.Observe(core.Output, *it.Punct)
			ctx.EmitPunct(*it.Punct)
		}
	}
	return s.pos < len(s.Items), nil
}

// Skipped reports tuples suppressed at the source.
//
//pace:allow-unreached reads what FeedbackAware suppressed, and goes with it
func (s *RatedSource) Skipped() int64 { return s.skipped }

// ImputationStream builds Experiment 1's input: n tuples alternating clean
// and dirty (null speed), one per spacing micros of stream time, with
// punctuation every punctEvery tuples. The extreme alternation is the
// paper's "induced extreme case".
func ImputationStream(n int, startMicros, spacing int64, punctEvery int) []queue.Item {
	items := make([]queue.Item, 0, n+n/max(1, punctEvery)+1)
	for i := 0; i < n; i++ {
		ts := startMicros + int64(i)*spacing
		seg := int64(i % 9)
		det := int64(i % 40)
		var speed stream.Value
		if i%2 == 0 {
			speed = stream.Float(55 + float64(i%10))
		} else {
			speed = stream.Null // requires imputation
		}
		items = append(items, queue.TupleItem(
			stream.NewTuple(stream.Int(seg), stream.Int(det), stream.TimeMicros(ts), speed).WithSeq(int64(i)),
		))
		if punctEvery > 0 && (i+1)%punctEvery == 0 {
			items = append(items, queue.PunctItem(
				punct.NewEmbedded(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(ts)))),
			))
		}
	}
	return items
}
