// Package ops is the staterstate fixture: operators built on the real
// exec.Operator interface, covering a stateful non-Stater (true
// positive), a stateless forwarder, a waived sink, a proper Stater, a
// contradictory waiver, and a reasonless waiver.
package ops

import (
	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// leaky accumulates across tuples but cannot be snapshotted.
type leaky struct { // want "does not implement snapshot.Stater"
	exec.Base
	count int64
}

func (l *leaky) Name() string                { return "leaky" }
func (l *leaky) InSchemas() []stream.Schema  { return nil }
func (l *leaky) OutSchemas() []stream.Schema { return nil }

func (l *leaky) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	l.count++
	ctx.Emit(t)
	return nil
}

// forwarder holds nothing between tuples: no finding, no waiver needed.
type forwarder struct {
	exec.Base
}

func (f *forwarder) Name() string                { return "forwarder" }
func (f *forwarder) InSchemas() []stream.Schema  { return nil }
func (f *forwarder) OutSchemas() []stream.Schema { return nil }

func (f *forwarder) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	ctx.Emit(t)
	return nil
}

// counted is stateful by the analyzer's definition but deliberately so.
//
//pace:stateless test sink; its counter is assertion plumbing, safe to lose on restore
type counted struct {
	exec.Base
	n int64
}

func (c *counted) Name() string                { return "counted" }
func (c *counted) InSchemas() []stream.Schema  { return nil }
func (c *counted) OutSchemas() []stream.Schema { return nil }

func (c *counted) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	c.n++
	return nil
}

// saved is the compliant shape: stateful and a Stater.
type saved struct {
	exec.Base
	n int64
}

func (s *saved) Name() string                { return "saved" }
func (s *saved) InSchemas() []stream.Schema  { return nil }
func (s *saved) OutSchemas() []stream.Schema { return nil }

func (s *saved) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	s.n++
	return nil
}

func (s *saved) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	return snapshot.Capture{}, nil
}
func (s *saved) LoadState(dec *snapshot.Decoder) error { return nil }

// stale kept its waiver after growing a snapshot.
//
//pace:stateless leftover from before it implemented Stater
type stale struct { // want "contradictory //pace:stateless"
	exec.Base
	n int64
}

func (s *stale) Name() string                { return "stale" }
func (s *stale) InSchemas() []stream.Schema  { return nil }
func (s *stale) OutSchemas() []stream.Schema { return nil }

func (s *stale) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	s.n++
	return nil
}

func (s *stale) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	return snapshot.Capture{}, nil
}
func (s *stale) LoadState(dec *snapshot.Decoder) error { return nil }

// unexplained waives without saying why.
//
//pace:stateless
type unexplained struct { // want "needs a reason"
	exec.Base
}

func (u *unexplained) Name() string                { return "unexplained" }
func (u *unexplained) InSchemas() []stream.Schema  { return nil }
func (u *unexplained) OutSchemas() []stream.Schema { return nil }

func (u *unexplained) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	return nil
}
