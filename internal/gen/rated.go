package gen

import (
	"fmt"
	"time"

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
// Pacing is deficit-based: each step plays however many items the elapsed
// wall clock entitles, so sleep jitter does not skew the average rate. It is
// a generator under the scripted rule: its punctuation items close runs.
type RatedSource struct {
	exec.Generating
	SourceName string
	Schema     stream.Schema
	Items      []queue.Item
	// PerSecond is the target emission rate (items per second).
	PerSecond float64

	pos   int
	start time.Time
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
	// The replay position is the item cursor; the wall-clock anchor is
	// re-derived on restore so the target rate resumes without a burst.
	s.Generate(s, exec.Rule{}, snapshot.Int(&s.pos), snapshot.Then(s.resume))
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

// Step implements exec.Generator: the items now due, up to and including
// the first punctuation.
func (s *RatedSource) Step(run []stream.Tuple) (exec.Run, error) {
	if s.pos >= len(s.Items) {
		return exec.Run{Tuples: run}, nil
	}
	due := min(int(time.Since(s.start).Seconds()*s.PerSecond), len(s.Items))
	if s.pos >= due {
		// Ahead of schedule: sleep roughly one inter-arrival gap. The
		// deficit computation absorbs oversleeping.
		time.Sleep(time.Duration(1e9 / s.PerSecond))
		return exec.Run{Tuples: run, More: true}, nil
	}
	var r exec.Run
	r, s.pos = exec.Replay(s.Items, s.pos, due, run)
	return r, nil
}

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
