package op

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/work"
)

// counters is the one home of a stateless operator's (Select, Map) tuple
// accounting and of the work its predicate burns. Its run methods (FilterRun,
// MapRun) count into it once per run, whether the run is a page's worth in a
// fused kernel (internal/fuse) or the one tuple of ProcessTuple, so Stats,
// CostBurned and the pace_op_* series read the same whether the plan was
// compiled or not. The counters are atomics so /metrics can scrape them while
// the plan runs.
type counters struct {
	In, Out, Suppressed, PunctDropped atomic.Int64
	Work                              work.Meter
}

// suppress drops the tuples of run that guards suppresses, compacting in
// place, and counts them. An empty table (no feedback, or an ignoring
// operator) costs one length check.
//
//pace:hotpath
func (c *counters) suppress(guards *core.GuardTable, run []stream.Tuple) []stream.Tuple {
	if guards.Active() == 0 {
		return run
	}
	kept := guards.Drop(run)
	c.Suppressed.Add(int64(len(run) - len(kept)))
	return kept
}

// count records a run of in tuples of which out left the operator.
//
//pace:hotpath
func (c *counters) count(in, out int) {
	c.In.Add(int64(in))
	c.Out.Add(int64(out))
}

// tupleVars renders the standard per-operator tuple accounting vars.
func tupleVars(c *counters) []telemetry.Var {
	return []telemetry.Var{
		{Name: "pace_op_tuples_in_total", Help: "Tuples delivered to the operator.", Value: c.In.Load},
		{Name: "pace_op_tuples_out_total", Help: "Tuples the operator emitted.", Value: c.Out.Load},
		exec.SuppressedVar(c.Suppressed.Load),
	}
}

// punctDroppedVar renders the punctuation a Map consumed.
func punctDroppedVar(c *counters) telemetry.Var {
	return telemetry.Var{
		Name: "pace_op_punct_dropped_total", Help: "Punctuations consumed because bound attributes were dropped.",
		Value: c.PunctDropped.Load,
	}
}
