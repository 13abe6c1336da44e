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
	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stream"
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
	// Seed makes the stream reproducible.
	Seed int64
	// Cost is burned per delivered tuple (models ingest/parse expense).
	Cost int
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
	return c
}

// TrafficSource streams the synthetic sensor reports in timestamp order,
// one segment's detector reports per step, punctuating stream progress on
// ts as each round ends.
type TrafficSource struct {
	exec.Generating
	Config TrafficConfig

	cfg TrafficConfig
	rng rng
	now int64 // current round's stream time
	seg int   // next segment within the round
	seq int64
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
	// The replay position is the round clock, the intra-round cursor, and the
	// RNG state: restoring them continues the synthetic stream bit-identically.
	s.Generate(s, exec.Rule{Progress: 2, Cost: s.cfg.Cost},
		snapshot.Int64(&s.now), snapshot.Int(&s.seg), snapshot.Int64(&s.seq), s.rng.field())
	return nil
}

// Step implements exec.Generator: one segment's detector reports (keeping
// runs modest so feedback interleaves).
func (s *TrafficSource) Step(run []stream.Tuple) (exec.Run, error) {
	if s.now >= s.cfg.Start+s.cfg.Duration {
		return exec.Run{Tuples: run}, nil
	}
	minuteOfDay := int((s.now / 60_000_000) % (24 * 60))
	for det := 0; det < s.cfg.DetectorsPerSegment; det++ {
		run = append(run, s.makeReport(int64(s.seg), int64(det), minuteOfDay))
	}
	r := exec.Run{Tuples: run, More: true}
	s.seg++
	if s.seg >= s.cfg.Segments {
		s.seg = 0
		s.now += s.cfg.ReportPeriod
		r.Upto = stream.TimeMicros(s.now)
	}
	return r, nil
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
