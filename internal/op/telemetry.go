package op

import (
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/work"
)

// Counters is the one home of a stateless operator's (Select, Map)
// tuple accounting and of the work its predicate burns. The operator counts
// into it when it runs as its own node, and a fused kernel's step counts into
// the same struct (internal/fuse), so Stats, CostBurned and the pace_op_*
// series read the same whether the plan was compiled or not. The counters are
// atomics so /metrics can scrape them while the plan runs; uncontended adds
// cost a few ns, within the hot path's noise.
type Counters struct {
	In, Out, Suppressed, PunctDropped atomic.Int64
	Work                              work.Meter
}

// tupleVars renders the standard per-operator tuple accounting vars.
func tupleVars(c *Counters) []telemetry.Var {
	return []telemetry.Var{
		{Name: "pace_op_tuples_in_total", Help: "Tuples delivered to the operator.", Kind: telemetry.Counter, Value: c.In.Load},
		{Name: "pace_op_tuples_out_total", Help: "Tuples the operator emitted.", Kind: telemetry.Counter, Value: c.Out.Load},
		{Name: "pace_op_suppressed_tuples_total", Help: "Tuples suppressed by the operator's guard table.", Kind: telemetry.Counter, Value: c.Suppressed.Load},
	}
}

// punctDroppedVar renders the punctuation a Map consumed.
func punctDroppedVar(c *Counters) telemetry.Var {
	return telemetry.Var{
		Name: "pace_op_punct_dropped_total", Help: "Punctuations consumed because bound attributes were dropped.",
		Kind: telemetry.Counter, Value: c.PunctDropped.Load,
	}
}
