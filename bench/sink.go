package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// digest identifies a multiset of result tuples: how many, and the sum of
// their hashes. The sum commutes, so partitions may interleave results in
// any order; a missing, extra or different result changes it.
type digest struct {
	count int64
	sum   uint64
}

func (d *digest) add(t stream.Tuple) {
	d.count++
	d.sum += hashTuple(t)
}

func hashTuple(t stream.Tuple) uint64 {
	h := uint64(len(t.Values))
	for i := range t.Values {
		v := &t.Values[i]
		bits := uint64(v.I)
		if v.Kind == stream.KindFloat {
			bits = math.Float64bits(v.F)
		}
		h = mix(h ^ bits ^ uint64(v.Kind)<<56)
	}
	return h
}

// Every workload's result schema keeps an event-time position in column 1
// (ts for the stateless plan, wstart for the aggregates); the sink and the
// viewer read the latency clock off it.
const colResultTime = 1

// sink is the benchmark's result collector: it digests everything it
// receives and, in a paced phase, times results against the clock.
//
//pace:stateless benchmark sink: a digest and a latency sample buffer per pass, rebuilt for every pass and never restored
type sink struct {
	exec.Base
	name   string
	schema stream.Schema

	got digest

	// clk, when set, times every stride-th result: the event that completed
	// it sat at stream position ts+closeAt (the tuple itself, or the last
	// position of its window, after which the closing punctuation follows).
	clk     *clock
	closeAt int64
	stride  int64
	lat     []latSample
}

// latSample is one timed result: when its completing event was due and how
// long after that it reached the sink, both in ns on the clock.
type latSample struct{ due, lat int64 }

func (c *clock) sample(pos, now int64) latSample {
	due := c.dueNs(pos)
	return latSample{due, now - due}
}

func (s *sink) Name() string                { return s.name }
func (s *sink) InSchemas() []stream.Schema  { return []stream.Schema{s.schema} }
func (s *sink) OutSchemas() []stream.Schema { return nil }

func (s *sink) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	s.got.add(t)
	if s.clk != nil && s.got.count%s.stride == 0 {
		s.lat = append(s.lat, s.clk.sample(t.Values[colResultTime].I+s.closeAt, s.clk.nowNs()))
	}
	return nil
}

// ProcessTupleBatch implements exec.TupleBatcher: one clock reading per run.
func (s *sink) ProcessTupleBatch(_ int, items []queue.Item, _ exec.Context) error {
	var now int64
	if s.clk != nil {
		now = s.clk.nowNs()
	}
	for i := range items {
		t := items[i].Tuple
		s.got.add(t)
		if s.clk != nil && s.got.count%s.stride == 0 {
			s.lat = append(s.lat, s.clk.sample(t.Values[colResultTime].I+s.closeAt, now))
		}
	}
	return nil
}

// mapResult is one speed-map cell as the viewer received it.
type mapResult struct {
	segment, wstart int64
	avg             uint64 // float bits
}

// viewer is the speed map's sink (Figure 4(b)): it shows one segment at a
// time, moves to the next every mapSwitchUS of stream time, and before each
// move tells the plan — as assumed feedback — that it will ignore every other
// segment for that period. It keeps each cell it receives so the harness can
// check them against the reference and the feedback it issued.
//
//pace:stateless benchmark sink: received cells and latency samples per pass, rebuilt for every pass and never restored
type viewer struct {
	exec.Base
	schema stream.Schema

	announced int64
	issued    []core.Feedback
	cells     []mapResult

	clk *clock
	lat []latSample
}

func (v *viewer) Name() string                { return "map-viewer" }
func (v *viewer) InSchemas() []stream.Schema  { return []stream.Schema{v.schema} }
func (v *viewer) OutSchemas() []stream.Schema { return nil }

// visible is the segment on screen during a period.
func visible(period int64) int64 { return period % mapSegments }

func (v *viewer) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	wstart := t.Values[colResultTime].I
	v.cells = append(v.cells, mapResult{t.Values[0].I, wstart, math.Float64bits(t.Values[2].F)})
	if v.clk != nil {
		// The window closes on the punctuation after the round that ends it.
		closing := (wstart+mapWindowUS)/mapPeriodUS*mapRound - 1
		v.lat = append(v.lat, v.clk.sample(closing, v.clk.nowNs()))
	}
	return nil
}

// ProcessPunct announces, on the first progress report inside a period, the
// period after it: ¬[segment ≠ visible, wstart within the period, *]. The
// wstart range keeps the guards it installs expirable (§4.4).
func (v *viewer) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	bound := e.Pattern.Bound()
	if len(bound) != 1 || bound[0] != colResultTime {
		return nil
	}
	pr := e.Pattern.Pred(colResultTime)
	if pr.Op != punct.LE {
		return nil
	}
	for p := v.announced + 1; p <= pr.Val.I/mapSwitchUS+1; p++ {
		f := core.Feedback{
			Intent: core.Assumed,
			Pattern: punct.NewPattern(
				punct.Ne(stream.Int(visible(p))),
				punct.Range(stream.TimeMicros(p*mapSwitchUS), stream.TimeMicros((p+1)*mapSwitchUS-1)),
				punct.Wild),
			Origin: v.Name(), Seq: p,
		}
		v.issued = append(v.issued, f)
		ctx.SendFeedback(0, f)
		v.announced = p
	}
	return nil
}
