package main

import (
	"math"

	"repro/internal/gen"
	"repro/internal/punct"
	"repro/internal/stream"
)

// Every workload reads the engine's fixed-sensor schema
// (segment, detector, ts, speed).
var inSchema = gen.TrafficSchema

const (
	colSegment = iota
	colDetector
	colTs
	colSpeed
)

// mix is splitmix64's finalizer. The generators draw tuple i's randomness
// from mix(seed ^ i·φ), so a tuple depends on (seed, i) alone: the source,
// the reference evaluator and the ladder regenerate any stretch of the
// stream without sharing state.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func draw(seed uint64, i int64) uint64 {
	return mix(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
}

// input describes one workload's generated stream: tuple i of n, and the
// progress punctuation that follows every block tuples.
type input struct {
	// fill writes tuple i's four values into v.
	fill func(v []stream.Value, i int64)
	// block is the number of tuples between punctuations; a burst of the
	// paced phase is a whole number of blocks.
	block int64
	// punctBound is the inclusive ts bound the punctuation after block k
	// (0-based) promises: no later tuple has ts ≤ bound.
	punctBound func(k int64) int64
	// cost is burned per tuple at the source (work units); 0 for the
	// engine-bound workloads.
	cost int
}

func (in *input) punctAfter(k int64) punct.Embedded {
	return punct.NewEmbedded(punct.OnAttr(inSchema.Arity(), colTs,
		punct.Le(stream.TimeMicros(in.punctBound(k)))))
}

const punctEvery = 512

func positionalBound(k int64) int64 { return (k+1)*punctEvery - 1 }

// uniformInput is stateless_fused's stream: ts is the position, segments
// are uniform over 256, and speed is uniform over [0, 80) so that the
// plan's speed ≥ 10 filter keeps 7 tuples in 8.
func uniformInput(seed uint64) *input {
	return &input{
		block:      punctEvery,
		punctBound: positionalBound,
		fill: func(v []stream.Value, i int64) {
			r := draw(seed, i)
			v[colSegment] = stream.Int(int64(r & 255))
			v[colDetector] = stream.Int(int64(r >> 8 & 31))
			v[colTs] = stream.TimeMicros(i)
			v[colSpeed] = stream.Float(float64(r>>16&0xffff) * (80.0 / 65536))
		},
	}
}

// zipfTable maps 4096 equal slices of the unit interval onto n keys with
// probability ∝ 1/rank (quantised to 1/4096), so a draw costs one index.
func zipfTable(n int) []uint16 {
	var h float64
	for r := 1; r <= n; r++ {
		h += 1 / float64(r)
	}
	table := make([]uint16, 4096)
	var cum float64
	slot := 0
	for r := 1; r <= n; r++ {
		cum += 1 / float64(r) / h
		end := int(math.Round(cum * 4096))
		for ; slot < end && slot < len(table); slot++ {
			table[slot] = uint16(r - 1)
		}
	}
	for ; slot < len(table); slot++ {
		table[slot] = uint16(n - 1)
	}
	return table
}

// zipfLateInput is groupby_parallel's stream: 256 Zipf-skewed segments, and
// one tuple in 16 carries a ts up to 200 positions in the past — but never
// before the start of its own punctuation block, so no tuple arrives after
// the punctuation that covers it.
func zipfLateInput(seed uint64) *input {
	table := zipfTable(256)
	return &input{
		block:      punctEvery,
		punctBound: positionalBound,
		fill: func(v []stream.Value, i int64) {
			r := draw(seed, i)
			ts := i
			if r>>60 == 0 {
				ts -= int64(r >> 40 % 201)
				if floor := i - i%punctEvery; ts < floor {
					ts = floor
				}
			}
			v[colSegment] = stream.Int(int64(table[r&4095]))
			v[colDetector] = stream.Int(int64(r >> 12 & 31))
			v[colTs] = stream.TimeMicros(ts)
			v[colSpeed] = stream.Float(float64(r>>20&0xffff) * (80.0 / 65536))
		},
	}
}

// wideKeyInput is remote_checkpointed's stream: segments uniform over
// 50 000, so consecutive tuples almost never share a group and every fold
// pays a hash probe.
func wideKeyInput(seed uint64) *input {
	return &input{
		block:      punctEvery,
		punctBound: positionalBound,
		fill: func(v []stream.Value, i int64) {
			r := draw(seed, i)
			v[colSegment] = stream.Int(int64(r % 50_000))
			v[colDetector] = stream.Int(int64(r >> 20 & 31))
			v[colTs] = stream.TimeMicros(i)
			v[colSpeed] = stream.Float(float64(r>>28&0xffff) * (80.0 / 65536))
		},
	}
}

// The speed map's network and clock, as in the paper's Experiment 2: 9
// segments of 40 detectors reporting every 20 s, one-minute averages.
const (
	mapSegments  = 9
	mapDetectors = 40
	mapRound     = mapSegments * mapDetectors
	mapPeriodUS  = 20_000_000
	mapWindowUS  = 60_000_000
	mapSwitchUS  = 2 * 60_000_000
)

// trafficInput is speedmap_feedback's stream: detector rounds in ts order,
// 2% of readings null and 1% out of range (both dropped by σ-quality), the
// rest in [20, 80).
func trafficInput(seed uint64, ingestCost int) *input {
	return &input{
		block:      mapRound,
		cost:       ingestCost,
		punctBound: func(k int64) int64 { return (k+1)*mapPeriodUS - 1 },
		fill: func(v []stream.Value, i int64) {
			r := draw(seed, i)
			round, at := i/mapRound, i%mapRound
			v[colSegment] = stream.Int(at / mapDetectors)
			v[colDetector] = stream.Int(at % mapDetectors)
			v[colTs] = stream.TimeMicros(round * mapPeriodUS)
			switch p := r % 100; {
			case p < 2:
				v[colSpeed] = stream.Null
			case p == 2:
				v[colSpeed] = stream.Float(150)
			default:
				v[colSpeed] = stream.Float(20 + float64(r>>8&0xffff)*(60.0/65536))
			}
		},
	}
}
