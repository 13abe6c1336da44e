// Package gen synthesizes the workloads the paper's experiments consume.
//
// Substitution note (DESIGN.md): the paper used Portland-area loop-detector
// data and probe-vehicle readings. We generate synthetic equivalents with
// the same shape — fixed sensors reporting (segment, detector, ts, speed)
// every 20 seconds, diurnal congestion waves, intermittent null-value
// sensor failures, optional disorder, and GPS probe vehicles whose density
// rises with congestion. The experiments depend only on these properties,
// not on the actual Portland topology.
package gen

import (
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/work"
)

// TrafficSchema is the fixed-sensor report schema used throughout the
// experiments: (segment, detector, ts, speed).
var TrafficSchema = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("detector", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

// TrafficConfig parameterizes the sensor stream.
type TrafficConfig struct {
	// Segments and DetectorsPerSegment give the network size (Experiment
	// 2 uses 9 and 40).
	Segments            int
	DetectorsPerSegment int
	// ReportPeriod is the per-detector reporting interval in stream
	// micros (paper: 20 seconds).
	ReportPeriod int64
	// Duration is the total stream-time span in micros (paper: 18 hours).
	Duration int64
	// Start anchors the first report's timestamp.
	Start int64
	// NullRate is the probability a report loses its speed value
	// (sensor failure; feeds IMPUTE).
	NullRate float64
	// Noise is the standard deviation of speed noise in mph.
	Noise float64
	// PunctEvery emits embedded punctuation on ts each time stream time
	// advances by this many micros (0 = every report round).
	PunctEvery int64
	// Seed makes the stream reproducible.
	Seed int64
	// Cost is burned per emitted tuple (models ingest/parse expense).
	Cost int
	// FeedbackAware lets assumed feedback suppress generation.
	//pace:allow-unreached removing it moves the traffic source's state golden
	FeedbackAware bool
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Segments <= 0 {
		c.Segments = 9
	}
	if c.DetectorsPerSegment <= 0 {
		c.DetectorsPerSegment = 40
	}
	if c.ReportPeriod <= 0 {
		c.ReportPeriod = 20 * 1_000_000
	}
	if c.Duration <= 0 {
		c.Duration = int64(18*time.Hour) / 1000
	}
	if c.PunctEvery <= 0 {
		c.PunctEvery = c.ReportPeriod
	}
	return c
}

// TrafficSource streams the synthetic sensor reports in timestamp order,
// one detector round at a time, punctuating stream progress as it goes.
type TrafficSource struct {
	exec.Responding
	snapshot.State
	Config TrafficConfig

	cfg     TrafficConfig
	rng     rng
	now     int64 // current round's stream time
	seg     int   // next segment within the round
	det     int   // next detector within the segment
	seq     int64
	lastPct int64
	guards  *core.GuardTable
	emitted int64
	skipped int64
	meter   work.Meter
}

// Name implements exec.Source.
func (s *TrafficSource) Name() string { return "traffic-sensors" }

// OutSchemas implements exec.Source.
func (s *TrafficSource) OutSchemas() []stream.Schema { return []stream.Schema{TrafficSchema} }

// Open implements exec.Source.
func (s *TrafficSource) Open(exec.Context) error {
	s.cfg = s.Config.withDefaults()
	s.rng = newRNG(s.cfg.Seed)
	s.now = s.cfg.Start
	s.lastPct = s.cfg.Start - 1
	s.guards = s.BindSource(s.cfg.FeedbackAware, TrafficSchema.Arity())
	// The replay position is the round clock, the intra-round cursor, and the
	// RNG state: restoring them continues the synthetic stream bit-identically.
	s.Keep(s.Name(), snapshot.Int64(&s.now), snapshot.Int(&s.seg),
		snapshot.Int64(&s.seq, &s.lastPct, &s.emitted, &s.skipped), s.rng.field(), snapshot.Guards(s.guards))
	return nil
}

// Next implements exec.Source: one Next call emits one segment's worth of
// detector reports (keeping batches modest so feedback interleaves).
func (s *TrafficSource) Next(ctx exec.Context) (bool, error) {
	if s.now >= s.cfg.Start+s.cfg.Duration {
		return false, nil
	}
	minuteOfDay := int((s.now / 60_000_000) % (24 * 60))
	for det := 0; det < s.cfg.DetectorsPerSegment; det++ {
		t := s.makeReport(int64(s.seg), int64(det), minuteOfDay)
		if s.guards.Suppress(t) {
			s.skipped++
			continue
		}
		if s.cfg.Cost > 0 {
			s.meter.Do(s.cfg.Cost)
		}
		s.emitted++
		ctx.Emit(t)
	}
	s.seg++
	if s.seg >= s.cfg.Segments {
		s.seg = 0
		s.now += s.cfg.ReportPeriod
		if s.now-s.lastPct >= s.cfg.PunctEvery {
			s.lastPct = s.now
			e := punct.NewEmbedded(punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(s.now))))
			ctx.EmitPunct(e)
		}
	}
	return true, nil
}

func (s *TrafficSource) makeReport(seg, det int64, minuteOfDay int) stream.Tuple {
	s.seq++
	speedVal := stream.Null
	if s.rng.Float64() >= s.cfg.NullRate {
		speed := archive.DiurnalSpeed(minuteOfDay, seg)
		if s.cfg.Noise > 0 {
			speed += s.rng.NormFloat64() * s.cfg.Noise
		}
		if speed < 0 {
			speed = 0
		}
		speedVal = stream.Float(speed)
	}
	return stream.NewTuple(
		stream.Int(seg), stream.Int(det), stream.TimeMicros(s.now), speedVal,
	).WithSeq(s.seq)
}

// Stats reports (emitted, suppressed-at-source).
func (s *TrafficSource) Stats() (emitted, skipped int64) { return s.emitted, s.skipped }

// WorkUnits reports ingest cost burned so far.
func (s *TrafficSource) WorkUnits() int64 { return s.meter.Total() }
