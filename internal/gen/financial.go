package gen

import (
	"math"

	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// TickSchema is the currency-tick schema for the §3.4 demanded-punctuation
// scenario: (pair, ts, rate).
var TickSchema = stream.MustSchema(
	stream.F("pair", stream.KindString),
	stream.F("ts", stream.KindTime),
	stream.F("rate", stream.KindFloat),
)

// TickConfig parameterizes the exchange-rate stream.
type TickConfig struct {
	// Pairs are the currency pairs to quote.
	Pairs []string
	// TicksPerPairPerSecond is the quote rate in stream time.
	TicksPerPairPerSecond float64
	// Duration spans the stream in micros, from stream time 0.
	Duration int64
	Seed     int64
}

// volatility is the per-tick relative rate change stddev.
const volatility = 0.0005

func (c TickConfig) withDefaults() TickConfig {
	if len(c.Pairs) == 0 {
		c.Pairs = []string{"EUR/USD", "GBP/USD", "USD/JPY"}
	}
	if c.TicksPerPairPerSecond <= 0 {
		c.TicksPerPairPerSecond = 5
	}
	if c.Duration <= 0 {
		c.Duration = 60 * 1_000_000
	}
	return c
}

// TickSource streams random-walk exchange rates in timestamp order, one
// stream second per step, punctuating on ts after each. No scenario asks it
// to respond (its Mode stays ignore): the demanded-punctuation consumer in
// the scenario is the aggregate.
type TickSource struct {
	exec.Generating
	Config TickConfig

	cfg   TickConfig
	rng   rng
	now   int64
	rates []float64
	seq   int64
}

// Name implements exec.Source.
func (s *TickSource) Name() string { return "ticks" }

// OutSchemas implements exec.Source.
func (s *TickSource) OutSchemas() []stream.Schema { return []stream.Schema{TickSchema} }

// Open implements exec.Source.
func (s *TickSource) Open(exec.Context) error {
	s.cfg = s.Config.withDefaults()
	s.rng = newRNG(s.cfg.Seed)
	s.now = 0
	s.rates = make([]float64, len(s.cfg.Pairs))
	for i := range s.rates {
		s.rates[i] = 0.8 + s.rng.Float64()
	}
	// The stream clock, the per-pair random-walk levels, and the RNG state
	// replay the tick stream bit-identically from the cut.
	s.Generate(s, exec.Rule{Progress: 1}, snapshot.Int64(&s.now, &s.seq), s.rng.field(),
		snapshot.Group(len(s.rates), func(i int) []snapshot.Field { return []snapshot.Field{snapshot.Float64(&s.rates[i])} }))
	return nil
}

// Step implements exec.Generator: one stream second of ticks.
func (s *TickSource) Step(run []stream.Tuple) (exec.Run, error) {
	if s.now >= s.cfg.Duration {
		return exec.Run{Tuples: run}, nil
	}
	const second = int64(1_000_000)
	n := int(s.cfg.TicksPerPairPerSecond)
	for i, pair := range s.cfg.Pairs {
		for k := 0; k < n; k++ {
			s.seq++
			s.rates[i] *= math.Exp(s.rng.NormFloat64() * volatility)
			ts := s.now + s.rng.Int63n(second)
			run = append(run, stream.NewTuple(
				stream.String_(pair), stream.TimeMicros(ts), stream.Float(s.rates[i]),
			).WithSeq(s.seq))
		}
	}
	s.now += second
	return exec.Run{Tuples: run, Upto: stream.TimeMicros(s.now), More: true}, nil
}
