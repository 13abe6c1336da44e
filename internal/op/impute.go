package op

import (
	"fmt"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Impute replaces missing (null) speed values with estimates obtained from
// an archival lookup — one expensive "database query" per dirty tuple
// (Example 3 / Experiment 1). It is the canonical *exploiter* of assumed
// feedback: upon receiving ¬[…, ≤cutoff, …] from PACE it installs an input
// guard, so tuples already too late are discarded *before* the lookup,
// letting the operator catch up to the live edge of the stream.
type Impute struct {
	exec.Responding
	snapshot.State
	//pace:allow-unreached bench/ladder.go names its imputation rung as Experiment 1 does; goes with the positions below
	OpName string
	Schema stream.Schema
	// Attribute positions in Schema.
	//pace:allow-unreached Experiment 1's traffic schema, which bench/ladder.go's imputation rung repeats
	SegAttr, DetAttr, TsAttr, SpeedAttr int
	// Store answers the archival queries.
	Store *archive.Store
	// FallbackSpeed is used when the archive has no history.
	FallbackSpeed float64
	// Mode: FeedbackIgnore makes Impute feedback-unaware (Figure 5);
	// anything else installs input guards (Figure 6). Impute relays no
	// feedback upstream: Experiment 1's source reads a log it cannot skip.
	Mode FeedbackMode

	guards *core.GuardTable
	// carried maps every attribute to itself except speed, which
	// imputation rewrites: punctuation relays and feedback propagates
	// through it.
	carried core.AttrMap

	imputed, skipped, passed int64
}

// Name implements exec.Operator.
func (im *Impute) Name() string {
	if im.OpName != "" {
		return im.OpName
	}
	return "impute"
}

// InSchemas implements exec.Operator.
func (im *Impute) InSchemas() []stream.Schema { return []stream.Schema{im.Schema} }

// OutSchemas implements exec.Operator.
func (im *Impute) OutSchemas() []stream.Schema { return []stream.Schema{im.Schema} }

// Open implements exec.Operator.
func (im *Impute) Open(exec.Context) error {
	im.Bind(im, im.Mode, false, 1, im.Schema.Arity())
	im.guards = im.OutTables()[0]
	im.carried = core.Identity(im.Schema.Arity())
	im.carried.ToInput[im.SpeedAttr] = -1
	if im.FallbackSpeed == 0 {
		im.FallbackSpeed = 55
	}
	im.keepState()
	return nil
}

// ProcessTuple implements exec.Operator.
func (im *Impute) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	if input != 0 {
		return fmt.Errorf("op: impute %q: tuple on unexpected input %d (single-input operator; check plan wiring)", im.Name(), input)
	}
	// The guard fires before the expensive lookup: this is the entire
	// point of the feedback (§4.3 strategy 2, guard on input).
	if im.guards.Suppress(t) {
		im.skipped++
		return nil
	}
	v := t.At(im.SpeedAttr)
	if !v.IsNull() {
		im.passed++
		ctx.Emit(t)
		return nil
	}
	seg := t.At(im.SegAttr).AsInt()
	det := t.At(im.DetAttr).AsInt()
	minuteOfDay := minuteOfDayOf(t.At(im.TsAttr).I)
	est, ok := im.Store.Lookup(seg, det, minuteOfDay)
	if !ok {
		est = im.FallbackSpeed
	}
	out := t.Clone()
	out.Values[im.SpeedAttr] = stream.Float(est)
	im.imputed++
	ctx.Emit(out)
	return nil
}

// minuteOfDayOf converts a micros timestamp to the minute-of-day bucket
// used by the archive.
func minuteOfDayOf(micros int64) int {
	const day = int64(24 * 60 * 60 * 1e6)
	m := micros % day
	if m < 0 {
		m += day
	}
	return int(m / int64(60*1e6))
}

// ProcessPunct implements exec.Operator: imputation carries every attribute
// except speed, which it rewrites, so punctuation relays iff it leaves speed
// unbound (core.AttrMap.OutputPattern): [speed ≤ 100] cannot promise that no
// imputed speed ≤ 100 follows. A relayed punctuation also expires guards.
func (im *Impute) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	if input != 0 {
		return fmt.Errorf("op: impute %q: punctuation on unexpected input %d (single-input operator; check plan wiring)", im.Name(), input)
	}
	if relayed, ok := im.carried.OutputPattern(e.Pattern); ok {
		pe := punct.NewEmbedded(relayed)
		im.Observe(core.Output, pe)
		ctx.EmitPunct(pe)
	}
	return nil
}

// Characterize implements core.Characterizer. The guard fires on the input,
// before the lookup, and the speed attribute is rewritten by imputation: a
// pattern binding it can neither guard the input nor propagate, everything
// else does both.
func (im *Impute) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	plan := core.Stateless(f, []core.Action{core.ActGuardInput}, im.carried)
	if plan.Propagate[0] == nil {
		plan.Actions = []core.Action{core.ActNone}
	}
	return plan
}

// Stats reports (imputed, skipped-by-guard, passed-clean) counts.
func (im *Impute) Stats() (imputed, skipped, passed int64) {
	return im.imputed, im.skipped, im.passed
}
