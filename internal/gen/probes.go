package gen

import (
	"repro/internal/archive"
	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// ProbeSchema is the probe-vehicle (GPS) report schema: (segment, ts,
// speed). Probe reports are noisy and must be cleaned before aggregation
// (Figure 1(b)).
var ProbeSchema = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

// ProbeConfig parameterizes the vehicle stream.
type ProbeConfig struct {
	Segments int
	// VehiclesPerPeriod is the mean probe count per segment per period
	// on an uncongested segment; congested segments see more vehicles
	// (they are denser and slower).
	VehiclesPerPeriod float64
	// Period is the reporting granularity in stream micros (20 s).
	Period int64
	// Duration spans the stream in micros.
	Duration int64
	Start    int64
	// NoiseRate is the fraction of wildly-corrupted readings (the
	// cleaning stage must drop them).
	NoiseRate float64
	// Noise is the per-reading speed noise stddev.
	Noise float64
	Seed  int64
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Segments <= 0 {
		c.Segments = 9
	}
	if c.VehiclesPerPeriod <= 0 {
		c.VehiclesPerPeriod = 3
	}
	if c.Period <= 0 {
		c.Period = 20 * 1_000_000
	}
	if c.Duration <= 0 {
		c.Duration = 3600 * 1_000_000
	}
	return c
}

// ProbeSource streams synthetic vehicle readings in timestamp order, one
// period per step, punctuating stream progress on ts after each.
type ProbeSource struct {
	exec.Generating
	Config ProbeConfig

	cfg ProbeConfig
	rng rng
	now int64
	seq int64
}

// Name implements exec.Source.
func (s *ProbeSource) Name() string { return "probe-vehicles" }

// OutSchemas implements exec.Source.
func (s *ProbeSource) OutSchemas() []stream.Schema { return []stream.Schema{ProbeSchema} }

// Open implements exec.Source.
func (s *ProbeSource) Open(exec.Context) error {
	s.cfg = s.Config.withDefaults()
	s.rng = newRNG(s.cfg.Seed)
	s.now = s.cfg.Start
	// The replay position: period clock, sequence counter, RNG state.
	s.Generate(s, exec.Rule{Progress: 1}, snapshot.Int64(&s.now, &s.seq), s.rng.field())
	return nil
}

// Step implements exec.Generator: one period's readings.
func (s *ProbeSource) Step(run []stream.Tuple) (exec.Run, error) {
	if s.now >= s.cfg.Start+s.cfg.Duration {
		return exec.Run{Tuples: run}, nil
	}
	minuteOfDay := int((s.now / 60_000_000) % (24 * 60))
	for seg := int64(0); seg < int64(s.cfg.Segments); seg++ {
		trueSpeed := archive.DiurnalSpeed(minuteOfDay, seg)
		// Congestion breeds probes: density scales inversely with speed.
		mean := s.cfg.VehiclesPerPeriod * (60 / max(trueSpeed, 10))
		n := s.rng.Poisson(mean)
		for v := 0; v < n; v++ {
			s.seq++
			speed := trueSpeed + s.rng.NormFloat64()*s.cfg.Noise
			if s.rng.Float64() < s.cfg.NoiseRate {
				speed = s.rng.Float64() * 200 // corrupted reading
			}
			if speed < 0 {
				speed = 0
			}
			ts := s.now + s.rng.Int63n(s.cfg.Period)
			run = append(run, stream.NewTuple(stream.Int(seg), stream.TimeMicros(ts), stream.Float(speed)).WithSeq(s.seq))
		}
	}
	s.now += s.cfg.Period
	return exec.Run{Tuples: run, Upto: stream.TimeMicros(s.now), More: true}, nil
}
