package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stream"
	"repro/internal/work"
)

// The container the benchmark runs on changes speed: for tens of seconds at a
// time identical passes run 10–25% slower, all of them, and a run that falls
// into such a stretch reports the stretch, not the code (README.md, Noise).
// So every phase also times a fixed piece of work that is not the engine's —
// the probe — right around its own measurements, and reports its times in
// calibrated seconds: wall-clock seconds divided by how much slower than
// nominal the probe ran. A change to the engine cannot move the probe, so it
// shows in the calibrated figures at full size; a change of the host moves
// both and mostly cancels.

// probeTime is how long one probe takes at the nominal host speed; the tuples
// it covers follow from the workload's nominal probe cost.
const probeTime = 30 * time.Millisecond

// probe runs a plain-Go twin of a streaming plan over the workload's own
// input — one goroutine generating tuples in pages as the benchmark's source
// does, a channel, one goroutine filtering, rebuilding and digesting them —
// at the current GOMAXPROCS, and returns its cost in ns per tuple. Like a plan
// it allocates per tuple, hands pages between goroutines and, on more than
// one processor, parks and wakes them, which is what the host's slow
// stretches slow down. It starts from a collection and allocates less than
// the ballast, so no collection falls inside it.
func (r *runner) probe() float64 {
	n := max(int64(float64(probeTime)/r.w.probe1p*r.scale), chunk)
	in := r.in
	runtime.GC()
	start := time.Now()
	pages := make(chan []stream.Tuple, 8)
	go func() {
		arity := inSchema.Arity()
		for pos := int64(0); pos < n; {
			end := min(pos+chunk, n)
			vals := make([]stream.Value, int(end-pos)*arity)
			page := make([]stream.Tuple, 0, end-pos)
			for i := pos; i < end; i++ {
				v := vals[:arity:arity]
				vals = vals[arity:]
				in.fill(v, i)
				if in.cost > 0 {
					work.Units(in.cost)
				}
				page = append(page, stream.Tuple{Values: v, Seq: i})
			}
			pages <- page
			pos = end
		}
		close(pages)
	}()
	var d digest
	for page := range pages {
		for _, t := range page {
			if t.Values[colSpeed].F < keepSpeed {
				continue
			}
			d.add(stream.Tuple{Values: []stream.Value{t.Values[colSegment], t.Values[colTs],
				stream.Float(t.Values[colSpeed].F * kphPerMph)}})
		}
	}
	probeDigest = d
	return float64(time.Since(start)) / float64(n)
}

// probeDigest keeps the probe's result alive.
var probeDigest digest

// calibration collects the probes taken around one phase's measurements.
type calibration struct {
	nominal float64 // the probe's cost when the benchmark landed, ns per tuple
	probes  []float64
}

func (c *calibration) take(r *runner) { c.probes = append(c.probes, r.probe()) }

// factor is how much slower than nominal the host ran during the phase: the
// median probe over the nominal one. A rate measured in the phase is
// multiplied by it, a duration divided.
func (c *calibration) factor() float64 { return median(c.probes) / c.nominal }

func (c *calibration) String() string {
	return fmt.Sprintf("probe %.2f ns/tuple, median of %d (nominal %.2f): host factor %.4f", median(c.probes), len(c.probes), c.nominal, c.factor())
}
