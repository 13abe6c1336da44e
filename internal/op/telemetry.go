package op

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// tupleVars renders the standard per-operator tuple accounting vars from
// atomic counters.
func tupleVars(in, out, suppressed *atomic.Int64) []telemetry.Var {
	return []telemetry.Var{
		{Name: "pace_op_tuples_in_total", Help: "Tuples delivered to the operator.", Kind: telemetry.Counter, Value: in.Load},
		{Name: "pace_op_tuples_out_total", Help: "Tuples the operator emitted.", Kind: telemetry.Counter, Value: out.Load},
		{Name: "pace_op_suppressed_tuples_total", Help: "Tuples suppressed by the operator's guard table.", Kind: telemetry.Counter, Value: suppressed.Load},
	}
}
