// Prefixed attaches stateless prefix kernels to a stateful consumer's input
// ports. The kernel (a Fused chain) runs inside the consumer's page loop —
// each constituent's run method over the survivors in the kernel's reused
// scratch buffer — and the survivors go straight into the consumer's batched
// apply path (exec.TupleBatchApplier) when it has one, or its per-tuple path
// otherwise. The wrapped node keeps the stateful operator's entire control
// surface: barrier alignment is untouched (the runtime still sees one node),
// snapshot capture/restore delegates to the inner operator (the prefix is
// stateless, so capture↔restore shape is unchanged), and punctuation and
// feedback traverse the constituents exactly as they would have hopped node
// to node unfused (DESIGN.md §10.5).
package fuse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Prefixed wraps a stateful consumer with per-input prefix kernels.
type Prefixed struct {
	inner   exec.Operator
	state   snapshot.Stater // inner, as the checkpoint participant it is
	kernels []*Fused        // indexed by input port; nil = no prefix on that port
	ins     []stream.Schema
	name    string

	// Context wrap cache: the runtime passes the same ctx for a node's whole
	// life, so the wrapper is built once, not boxed per callback.
	cachedBase exec.Context
	cachedWrap exec.Context
}

// NewPrefixed wraps inner with kernels (one slot per input port, nil slots
// allowed). The inner operator must be a snapshot.Stater — every absorb
// target (Aggregate, Join, Impute, Pace, Split) is — so checkpoint identity
// is preserved by delegation; each kernel's output schema must match the
// inner input it feeds.
func NewPrefixed(inner exec.Operator, kernels []*Fused) (*Prefixed, error) {
	if inner == nil {
		return nil, fmt.Errorf("fuse: prefix around nil operator")
	}
	state, ok := inner.(snapshot.Stater)
	if !ok {
		return nil, fmt.Errorf("fuse: prefix target %q is not a snapshot.Stater stateful operator", inner.Name())
	}
	ins := inner.InSchemas()
	if len(kernels) != len(ins) {
		return nil, fmt.Errorf("fuse: prefix target %q has %d inputs, got %d kernel slots",
			inner.Name(), len(ins), len(kernels))
	}
	p := &Prefixed{inner: inner, state: state, kernels: kernels, ins: append([]stream.Schema(nil), ins...)}
	var parts []string
	any := false
	for i, k := range kernels {
		if k == nil {
			continue
		}
		any = true
		if !k.OutSchemas()[0].Equal(ins[i]) {
			return nil, fmt.Errorf("fuse: prefix kernel on input %d emits %s, %q expects %s",
				i, k.OutSchemas()[0], inner.Name(), ins[i])
		}
		p.ins[i] = k.InSchemas()[0]
		part := strings.Join(k.stepNames(), "+")
		if len(ins) > 1 {
			part = strconv.Itoa(i) + ":" + part
		}
		parts = append(parts, part)
	}
	if !any {
		return nil, fmt.Errorf("fuse: prefix around %q with no kernels", inner.Name())
	}
	p.name = "fused(" + strings.Join(parts, ",") + "=>" + inner.Name() + ")"
	return p, nil
}

// Inner returns the wrapped stateful operator.
func (p *Prefixed) Inner() exec.Operator { return p.inner }

// Kernel returns the prefix kernel on the given input port (nil when the
// port has none).
func (p *Prefixed) Kernel(input int) *Fused {
	if input < 0 || input >= len(p.kernels) {
		return nil
	}
	return p.kernels[input]
}

// Name implements exec.Operator.
func (p *Prefixed) Name() string { return p.name }

// InSchemas implements exec.Operator: the kernel input schema on prefixed
// ports, the inner operator's schema elsewhere.
func (p *Prefixed) InSchemas() []stream.Schema { return p.ins }

// OutSchemas implements exec.Operator.
func (p *Prefixed) OutSchemas() []stream.Schema { return p.inner.OutSchemas() }

func (p *Prefixed) wrap(ctx exec.Context) exec.Context {
	if ctx == p.cachedBase {
		return p.cachedWrap
	}
	w := &prefixedCtx{Context: ctx, p: p}
	p.cachedBase, p.cachedWrap = ctx, w
	return w
}

// Open implements exec.Operator: kernels open their constituents, then the
// inner operator opens against the wrapped context.
func (p *Prefixed) Open(ctx exec.Context) error {
	for _, k := range p.kernels {
		if k == nil {
			continue
		}
		if err := k.Open(ctx); err != nil {
			return err
		}
	}
	return p.inner.Open(p.wrap(ctx))
}

// ProcessTuple implements exec.Operator: the kernel filters/maps the tuple
// as a run of one, the inner operator folds the survivor. Used by the
// runtime's per-item path (barrier alignment, singleton runs).
func (p *Prefixed) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	w := p.wrap(ctx)
	if k := p.Kernel(input); k != nil {
		out, ok := k.runOne(t, ctx)
		if !ok {
			return nil
		}
		t = out
	}
	return p.inner.ProcessTuple(input, t, w)
}

// ProcessTupleBatch implements exec.TupleBatcher: the kernel loop takes the
// whole run, then the survivors go to the inner operator's batched apply
// path in one call (falling back to per-tuple when the inner operator has
// none).
func (p *Prefixed) ProcessTupleBatch(input int, items []queue.Item, ctx exec.Context) error {
	w := p.wrap(ctx)
	k := p.Kernel(input)
	if k == nil {
		if tb, ok := p.inner.(exec.TupleBatcher); ok {
			return tb.ProcessTupleBatch(input, items, w)
		}
		for i := range items {
			if err := p.inner.ProcessTuple(input, items[i].Tuple, w); err != nil {
				return err
			}
		}
		return nil
	}
	buf := k.runSteps(items, ctx)
	if len(buf) == 0 {
		return nil
	}
	if ba, ok := p.inner.(exec.TupleBatchApplier); ok {
		return ba.ApplyTupleBatch(input, buf, w)
	}
	for i := range buf {
		if err := p.inner.ProcessTuple(input, buf[i], w); err != nil {
			return err
		}
	}
	return nil
}

// ProcessPunct implements exec.Operator: punctuation traverses the kernel's
// constituents in chain order (folded by each one's responder, re-expressed
// by each mapping) before reaching the inner operator — a pattern consumed
// inside the kernel stops exactly where the unfused chain would have stopped
// it.
func (p *Prefixed) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	w := p.wrap(ctx)
	if k := p.Kernel(input); k != nil {
		out, ok := k.relayPunct(e)
		if !ok {
			return nil
		}
		e = out
	}
	return p.inner.ProcessPunct(input, e, w)
}

// ProcessFeedback implements exec.Operator: feedback lands on the inner
// operator first (it is the downstream end of the absorbed chain); if the
// inner operator propagates upstream, the wrapped context routes it through
// that input's kernel constituents in reverse order (see
// prefixedCtx.SendFeedback).
func (p *Prefixed) ProcessFeedback(output int, fb core.Feedback, ctx exec.Context) error {
	return p.inner.ProcessFeedback(output, fb, p.wrap(ctx))
}

// ProcessEOS implements exec.Operator.
func (p *Prefixed) ProcessEOS(input int, ctx exec.Context) error {
	return p.inner.ProcessEOS(input, p.wrap(ctx))
}

// Close implements exec.Operator.
func (p *Prefixed) Close(ctx exec.Context) error {
	return p.inner.Close(p.wrap(ctx))
}

// CaptureState implements snapshot.Stater by delegation: the prefix is
// stateless (guard tables rebuild from feedback, like every guarded
// operator), so the node's checkpoint payload is exactly the inner
// operator's.
func (p *Prefixed) CaptureState(mode snapshot.CaptureMode) (snapshot.Capture, error) {
	return p.state.CaptureState(mode)
}

// LoadState implements snapshot.Stater by delegation.
func (p *Prefixed) LoadState(d *snapshot.Decoder) error { return p.state.LoadState(d) }

// TelemetryVars implements telemetry.VarExporter: every kernel's
// per-constituent vars (labelled with the input port they guard, so two
// kernels on one node stay distinguishable) plus the inner operator's own
// vars — fusion costs no visibility.
func (p *Prefixed) TelemetryVars() []telemetry.Var {
	var vars []telemetry.Var
	for i, k := range p.kernels {
		if k == nil {
			continue
		}
		for _, v := range k.TelemetryVars() {
			labels := map[string]string{"input": strconv.Itoa(i)}
			for lk, lv := range v.Labels {
				labels[lk] = lv
			}
			v.Labels = labels
			vars = append(vars, v)
		}
	}
	if ve, ok := p.inner.(telemetry.VarExporter); ok {
		vars = append(vars, ve.TelemetryVars()...)
	}
	return vars
}

// Explain renders the prefix kernels and the consumer they feed — visually
// distinct from a standalone kernel (cmd/paceql -explain).
func (p *Prefixed) Explain() string {
	var parts []string
	for i, k := range p.kernels {
		if k == nil {
			continue
		}
		parts = append(parts, fmt.Sprintf("in%d{%s}", i, k.Explain()))
	}
	return "prefix " + strings.Join(parts, " ") + " => " + p.inner.Name()
}

// String describes the operator.
func (p *Prefixed) String() string {
	return fmt.Sprintf("PREFIXED[%s]", p.Explain())
}

// prefixedCtx is the context the inner operator sees: identical to the
// runtime's except that upstream feedback traverses the input's kernel
// constituents (reverse chain order, guard installs, pattern re-expression)
// before leaving the node. Everything else, emission included, is the
// embedded context's.
type prefixedCtx struct {
	exec.Context
	p *Prefixed
}

// Slab lets exec.Slab reach the runtime through the wrapper, so the inner
// operator's runs (a window flush) are built in recycled slabs too.
func (c *prefixedCtx) Slab(n int) []stream.Value { return exec.Slab(c.Context, n) }

// SendFeedback routes inner-originated and relayed feedback through the
// input's prefix kernel, exactly as it would hop through the unfused chain.
func (c *prefixedCtx) SendFeedback(input int, fb core.Feedback) {
	if k := c.p.Kernel(input); k != nil {
		out, ok := k.applyFeedback(fb, c.Context)
		if !ok {
			return
		}
		fb = out
	}
	c.Context.SendFeedback(input, fb)
}
