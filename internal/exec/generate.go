package exec

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/work"
)

// Generator is a source's own half: what comes next, from a position it keeps
// (DESIGN.md §7.2). A source embeds Generating, the boundary every engine
// source shares, and binds itself to it from Open with Generate.
type Generator interface {
	Name() string
	OutSchemas() []stream.Schema
	// Step appends the next run of tuples to run and returns it with what
	// closes it. It never probes a guard: a tuple the boundary drops has
	// still advanced the generator's position and its draws.
	Step(run []stream.Tuple) (Run, error)
}

// Run is one Step: its tuples, what closes it, and whether more follow.
type Run struct {
	Tuples []stream.Tuple
	// Upto closes the run under the progress rule: the stream is
	// non-decreasing on Rule.Progress, so after the run's tuples the boundary
	// promises [Progress < Upto]. Null promises nothing.
	Upto stream.Value
	// Script closes the run under the scripted rule: the generator's own
	// punctuation, played after the run's tuples.
	Script *punct.Embedded
	More   bool
}

// Rule is what a generator declares: the attribute Run.Upto bounds, and the
// ingest work burned per delivered tuple (none for one a guard drops).
type Rule struct{ Progress, Cost int }

// Generating is the source boundary. Its Next steps the generator, drops
// the tuples the guards disclaim and counts them, burns the ingest cost of
// the rest, emits them as one run and then the punctuation that closes it,
// so a promise always follows the tuples it covers. Its feedback response is
// a guard on the output under Mode: a source is the strongest exploiter
// there is, since what it guards is never delivered, and it has nothing
// upstream to relay to. Its checkpoint is the generator's position, then the
// suppression count and the guards.
type Generating struct {
	Responding
	snapshot.State
	// Mode is the source's response to feedback (DESIGN.md §3.1): under
	// core.ModeIgnore, the zero value, its guard table stays empty.
	Mode core.Mode

	gen        Generator
	rule       Rule
	guards     *core.GuardTable
	suppressed atomic.Int64
	meter      work.Meter
	// run backs each step's tuples; transient, never captured.
	run []stream.Tuple
}

// Generate binds the boundary to g, the source embedding it, from g's Open:
// rule is g's declaration and position the fields of its replay position.
func (b *Generating) Generate(g Generator, rule Rule, position ...snapshot.Field) {
	b.gen, b.rule = g, rule
	b.Bind(b, b.Mode, false, 1, g.OutSchemas()[0].Arity())
	b.guards = b.OutTables()[0]
	b.Keep(g.Name(), append(position, b.suppressedField(), snapshot.Guards(b.guards))...)
}

// Replay is the scripted rule's step: it appends the tuples of items[pos:end]
// to run, stopping after the first punctuation, which closes the run, and
// returns the run and the position it reached.
func Replay(items []queue.Item, pos, end int, run []stream.Tuple) (Run, int) {
	var r Run
	for ; pos < end && r.Script == nil; pos++ {
		switch it := items[pos]; it.Kind {
		case queue.ItemTuple:
			run = append(run, it.Tuple)
		case queue.ItemPunct:
			r.Script = it.Punct
		}
	}
	r.Tuples, r.More = run, pos < len(items)
	return r, pos
}

// Characterize implements core.Characterizer: a source guards its output.
func (b *Generating) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	return core.Stateless(f, []core.Action{core.ActGuardOutput})
}

// Next implements Source: one step, delivered. Feedback arrives between
// calls, so no guard appears inside a run.
//
//pace:hotpath
func (b *Generating) Next(ctx Context) (bool, error) {
	r, err := b.gen.Step(b.run[:0])
	if err != nil {
		return false, err
	}
	b.run = r.Tuples[:0]
	run := b.guards.Drop(r.Tuples)
	if n := len(r.Tuples) - len(run); n > 0 {
		b.suppressed.Add(int64(n))
	}
	if len(run) > 0 {
		if b.rule.Cost > 0 {
			b.meter.Do(b.rule.Cost * len(run))
		}
		ctx.EmitBatch(run)
	}
	switch {
	case r.Script != nil:
		ctx.EmitPunct(*r.Script)
	case !r.Upto.IsNull():
		ctx.EmitPunct(punct.NewEmbedded(punct.OnAttr(b.guards.Arity(), b.rule.Progress, punct.Lt(r.Upto)))) //pace:allow-alloc one pattern per promise, none per tuple
	}
	return r.More, nil
}

// Suppressed reports how many tuples the source's guards dropped.
func (b *Generating) Suppressed() int64 { return b.suppressed.Load() }

// WorkUnits reports the ingest cost burned so far.
func (b *Generating) WorkUnits() int64 { return b.meter.Total() }

// TelemetryVars implements telemetry.VarExporter.
func (b *Generating) TelemetryVars() []telemetry.Var {
	return append(b.Responding.TelemetryVars(), SuppressedVar(b.suppressed.Load))
}

// SuppressedVar renders a node's one count of the tuples its guards dropped.
func SuppressedVar(load func() int64) telemetry.Var {
	return telemetry.Var{Name: "pace_op_suppressed_tuples_total", Help: "Tuples suppressed by the operator's guard table.", Value: load}
}

// suppressedField keeps the suppression count.
func (b *Generating) suppressedField() snapshot.Field {
	return snapshot.Field{
		Capture: func() func(*snapshot.Encoder) {
			n := b.suppressed.Load()
			return func(enc *snapshot.Encoder) { enc.PutInt64(n) }
		},
		Load: func(dec *snapshot.Decoder) error {
			b.suppressed.Store(dec.GetInt64())
			return nil
		},
	}
}
