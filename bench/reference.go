package main

import (
	"math"

	"repro/internal/stream"
)

// The references below recompute each workload's results from the same
// generated input with nothing of the engine but its value types: a loop for
// the stateless plan, a plain map of (window, group) accumulators for the
// aggregates. They fold in arrival order, as the engine does, so averages
// agree to the bit.

const kphPerMph = 1.609344

// keepSpeed is the stateless prefix's predicate in stateless_fused and
// groupby_parallel.
const keepSpeed = 10.0

// statelessReference is stateless_fused in closed form: every tuple with
// speed ≥ 10 comes out as (segment, ts, speed in km/h).
func statelessReference(in *input, n int64) digest {
	var d digest
	v := make([]stream.Value, inSchema.Arity())
	out := make([]stream.Value, 3)
	for i := int64(0); i < n; i++ {
		in.fill(v, i)
		if v[colSpeed].F < keepSpeed {
			continue
		}
		out[0], out[1] = v[colSegment], v[colTs]
		out[2] = stream.Float(v[colSpeed].F * kphPerMph)
		d.add(stream.Tuple{Values: out})
	}
	return d
}

type groupKey struct{ wid, segment int64 }

type groupAcc struct {
	sum   float64
	count int64
}

// windowAverages evaluates a tumbling-window AVG(speed) GROUP BY segment over
// the first n tuples, keeping those that pass keep.
func windowAverages(in *input, n, window int64, keep func(stream.Value) bool) map[groupKey]float64 {
	acc := make(map[groupKey]groupAcc)
	v := make([]stream.Value, inSchema.Arity())
	for i := int64(0); i < n; i++ {
		in.fill(v, i)
		if !keep(v[colSpeed]) {
			continue
		}
		k := groupKey{v[colTs].I / window, v[colSegment].I}
		a := acc[k]
		a.sum += v[colSpeed].F
		a.count++
		acc[k] = a
	}
	avgs := make(map[groupKey]float64, len(acc))
	for k, a := range acc {
		avgs[k] = a.sum / float64(a.count)
	}
	return avgs
}

// averagesDigest digests windowAverages as the engine's (segment, wstart,
// avg) result tuples.
func averagesDigest(avgs map[groupKey]float64, window int64) digest {
	var d digest
	out := make([]stream.Value, 3)
	for k, avg := range avgs {
		out[0] = stream.Int(k.segment)
		out[1] = stream.TimeMicros(k.wid * window)
		out[2] = stream.Float(avg)
		d.add(stream.Tuple{Values: out})
	}
	return d
}

func keepFast(v stream.Value) bool { return v.F >= keepSpeed }

func keepAll(stream.Value) bool { return true }

// keepQuality is the speed map's σ-quality filter.
func keepQuality(v stream.Value) bool { return !v.IsNull() && v.F >= 0 && v.F <= 120 }

// checkDigest compares what a sink received with the reference: the number
// of results that are missing or extra, or 1 when the counts agree but some
// result differs.
func checkDigest(got, want digest) (attempted, failed int64) {
	failed = got.count - want.count
	if failed < 0 {
		failed = -failed
	}
	if failed == 0 && got.sum != want.sum {
		failed = 1
	}
	return want.count, failed
}

// checkMap compares the cells the viewer received with the reference and the
// feedback it issued: every cell must be a reference cell with the same
// value, received once; every reference cell the feedback does not describe
// must have arrived. Cells that arrived although the feedback describes them
// are correct (assumed feedback is a hint; Definition 1) and are returned as
// leaked, not as failures.
func checkMap(cells []mapResult, announced int64, ref map[groupKey]float64) (attempted, failed, leaked int64) {
	isDescribed := func(k groupKey) bool {
		p := k.wid * mapWindowUS / mapSwitchUS
		return p >= 1 && p <= announced && k.segment != visible(p)
	}
	seen := make(map[groupKey]bool, len(cells))
	for _, c := range cells {
		k := groupKey{c.wstart / mapWindowUS, c.segment}
		want, ok := ref[k]
		if !ok || seen[k] || math.Float64bits(want) != c.avg {
			failed++
			continue
		}
		seen[k] = true
		if isDescribed(k) {
			leaked++
		}
	}
	for k := range ref {
		if isDescribed(k) {
			continue
		}
		attempted++
		if !seen[k] {
			failed++
		}
	}
	return attempted, failed, leaked
}
