// Package fuse is the plan compiler: one scan over exec.Graph (Rewrite) that
// folds maximal chains of adjacent stateless operators (Select, Project, Map)
// into the node they feed — a standalone Fused node, or a prefix kernel
// inside a stateful consumer (Prefixed). A kernel runs its chain a run at a
// time, step by step — each step one pass over the run's survivors: guard
// probe, compiled predicate, attribute mapping — with no intermediate Emit
// and no page handoff between the constituents.
//
// Fusion is semantics-preserving by the paper's §4.3 characterization of
// stateless operators, and the kernel preserves each composition rule
// exactly (DESIGN.md §10):
//
//   - punctuation relays iff every constituent would relay it (chain order,
//     stopping at the first constituent that must consume it);
//   - feedback walks the constituents in reverse chain order, each one's own
//     core.Responder enacting that operator's own Characterize, and leaves
//     upstream iff every constituent relays it;
//   - each step counts into its constituent operator's own op.Counters, so
//     the operator's Stats, CostBurned and pace_op_* series (labelled step)
//     read what they would unfused;
//   - no constituent is a snapshot.Stater, so the fused node is stateless
//     and checkpoint barrier alignment is unchanged.
package fuse

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

type stepKind int

const (
	kSelect stepKind = iota
	kProject
	kMap
)

func (k stepKind) String() string {
	switch k {
	case kSelect:
		return "select"
	case kProject:
		return "project"
	case kMap:
		return "map"
	}
	return "?"
}

// step is one constituent operator in evaluation form: the flat step table
// entry the kernel loop interprets.
type step struct {
	kind stepKind
	name string
	// row is the constituent operator itself, as the characterization its
	// responder enacts under the operator's Mode and Propagate.
	row       core.Characterizer
	mode      op.FeedbackMode
	propagate bool

	// Select evaluation.
	cond func(stream.Tuple) bool
	expr *punct.Expr
	cost int

	// Map attribute mapping: amap.ToInput maps output attr → input attr
	// (-1 = computed by fns), and relays punctuation (OutputPattern).
	out      stream.Schema
	amap     core.AttrMap
	fns      []func(stream.Tuple) stream.Value
	identity bool
	// vals is the scratch an intermediate mapping step gathers a run into
	// (unused by the chain's last mapping step, which gathers into the run's
	// slab). It is read by the next step and never leaves runSteps.
	vals []stream.Value

	// guards is the responder's table: it lives in the step's OUTPUT
	// attribute space, exactly like the unfused operator's.
	fb     core.Responder[*hop]
	guards *core.GuardTable
	// c is the constituent operator's own counters: the kernel adds in/out
	// once per run per step, preserving the batched-counters contract
	// (DESIGN.md §2.3).
	c *op.Counters
}

// Fused runs a chain of stateless operators as one exec node.
//
//pace:stateless fuses only stateless operators; per-step guards are exploitation-only and scratch is transient within one call
type Fused struct {
	exec.Base
	in    stream.Schema
	steps []step
	name  string
	// lastMap is the index of the chain's last non-identity mapping step,
	// the one that writes emitted tuples (-1: no step rebuilds tuples and
	// survivors are the inputs themselves).
	lastMap int
	// scratch backs the kernel loop's survivor list and one its run of one
	// (ProcessTuple); reused across runs (operators are single-goroutine).
	// Transient within one call — never checkpointed.
	scratch []stream.Tuple
	one     [1]queue.Item
}

// hop catches what a step relays upstream, to hand it to the step before it.
type hop struct {
	fb   core.Feedback
	sent bool
}

// SendFeedback implements core.Upstream.
func (h *hop) SendFeedback(_ int, f core.Feedback) { h.fb, h.sent = f, true }

// NumInputs implements core.Upstream.
func (h *hop) NumInputs() int { return 1 }

// mapper is an operator that compiles to a mapping step: an *op.Map, or an
// *op.Project, whose Init builds the Map it embeds and whose Resolved is
// that Map's.
type mapper interface {
	Init() error
	Resolved() (*op.Map, core.AttrMap, []func(stream.Tuple) stream.Value)
}

// New builds a fused kernel from a chain of operators (upstream→downstream).
// Every operator must be a *op.Select or a Map (*op.Map, *op.Project); Map
// misconfiguration surfaces as an error (via Init), not a panic.
func New(ops []exec.Operator) (*Fused, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("fuse: empty chain")
	}
	f := &Fused{}
	for _, o := range ops {
		switch o := o.(type) {
		case *op.Select:
			f.steps = append(f.steps, step{
				kind: kSelect, name: o.Name(), row: o, mode: o.Mode, propagate: o.Propagate,
				cond: o.Cond, expr: o.Expr, cost: o.Cost, c: o.Counters(),
				out: o.Schema, identity: true,
			})
		case mapper:
			if err := o.Init(); err != nil {
				return nil, fmt.Errorf("fuse: %v", err)
			}
			f.steps = append(f.steps, step{})
			f.steps[len(f.steps)-1].initMapping(o.Resolved())
		default:
			return nil, fmt.Errorf("fuse: %q (%T) is not a fusible operator", o.Name(), o)
		}
	}
	f.lastMap = -1
	for i := range f.steps {
		if st := &f.steps[i]; st.kind != kSelect && !st.identity {
			f.lastMap = i
		}
	}
	f.in = ops[0].InSchemas()[0]
	f.name = "fused(" + strings.Join(f.stepNames(), "+") + ")"
	return f, nil
}

// stepNames returns the constituents' names in chain order.
func (f *Fused) stepNames() []string {
	names := make([]string, len(f.steps))
	for i := range f.steps {
		names[i] = f.steps[i].name
	}
	return names
}

// initMapping fills a mapping step in place from the Map's resolved mapping
// (step holds its responder's atomics, so it must not be returned or copied
// by value). A step that only carries is labelled project, one that computes
// map.
func (st *step) initMapping(m *op.Map, amap core.AttrMap, fns []func(stream.Tuple) stream.Value) {
	st.kind = kProject
	if slices.Contains(amap.ToInput, -1) {
		st.kind = kMap
	}
	st.name, st.row, st.c, st.mode, st.propagate = m.Name(), m, m.Counters(), m.Mode, m.Propagate
	st.out, st.amap, st.fns, st.identity = m.OutSchemas()[0], amap, fns, amap.IsIdentity()
}

// Name implements exec.Operator.
func (f *Fused) Name() string { return f.name }

// InSchemas implements exec.Operator.
func (f *Fused) InSchemas() []stream.Schema { return []stream.Schema{f.in} }

// OutSchemas implements exec.Operator.
func (f *Fused) OutSchemas() []stream.Schema {
	return []stream.Schema{f.steps[len(f.steps)-1].out}
}

// Open implements exec.Operator.
func (f *Fused) Open(exec.Context) error {
	for i := range f.steps {
		st := &f.steps[i]
		st.fb.Bind(st.row, st.mode, st.propagate, 1, st.out.Arity())
		st.guards = st.fb.OutTables()[0]
	}
	return nil
}

// ProcessTuple implements exec.Operator: a run of one through the kernel
// loop (runSteps). The runtime uses it for barrier alignment and singleton
// runs; everything else arrives through ProcessTupleBatch.
//
//pace:hotpath
func (f *Fused) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	if out, ok := f.runOne(t, ctx); ok {
		ctx.Emit(out)
	}
	return nil
}

// runOne pushes a single tuple through the kernel as a run of one and
// reports whether it survived the whole chain — shared by ProcessTuple and
// the prefix path (Prefixed), which emit survivors differently.
//
//pace:hotpath
func (f *Fused) runOne(t stream.Tuple, ctx exec.Context) (stream.Tuple, bool) {
	f.one[0].Tuple = t
	out := f.runSteps(f.one[:], ctx)
	if len(out) == 0 {
		return stream.Tuple{}, false
	}
	return out[0], true
}

// ProcessTupleBatch implements exec.TupleBatcher: a run of consecutive
// tuples goes through the kernel loop in one call and the survivors are
// emitted in order as one run. Exactly equivalent to calling ProcessTuple
// per item; the runtime mixes both paths freely.
//
//pace:hotpath
func (f *Fused) ProcessTupleBatch(_ int, items []queue.Item, ctx exec.Context) error {
	ctx.EmitBatch(f.runSteps(items, ctx))
	return nil
}

// runSteps is the kernel loop. It is step-major: the run's tuples are copied
// once into f.scratch, the survivor list, and each step makes one pass over
// the survivors in chain order, compacting them in place like a selection
// vector. A select step probes its guard table, burns its cost for what
// survived the guards, then filters by its predicate; a mapping step rebuilds
// the survivors column by column, then probes its guard table. The returned
// slice is f.scratch and valid until the next call: the caller hands it off
// (emit or batch-apply) before then.
//
// Each output tuple is written once. A mapping step that is not the chain's
// last gathers into its own scratch (st.vals, grown with the largest run
// seen), which the next step reads and nothing else ever sees; the last
// mapping step gathers into the run's slab, drawn from ctx (exec.Slab:
// recycled memory the output pages will own) and sized for the tuples that
// reach it. A survivor keeps its slot as slab[:n:n] (cap == len: an append on
// an emitted tuple cannot reach its neighbour); a tuple a later select or
// guard drops leaves its slot unused. A chain with no mapping step draws
// nothing, and neither does a run that no tuple survives to the last one.
//
// Feedback only arrives between runs, so a guard table cannot change during
// one, and the per-step counters move once per run: a step's input is its
// predecessor's output.
//
//pace:hotpath
func (f *Fused) runSteps(items []queue.Item, ctx exec.Context) []stream.Tuple {
	sel := f.scratch[:0]
	for i := range items {
		sel = append(sel, items[i].Tuple)
	}
	for si := range f.steps {
		st := &f.steps[si]
		in := len(sel)
		if st.kind == kSelect {
			sel = st.suppress(sel)
			if st.cost > 0 && len(sel) > 0 {
				st.c.Work.Do(st.cost * len(sel))
			}
			if st.expr != nil {
				sel = st.expr.Filter(sel)
			}
			if st.cond != nil {
				sel = st.filter(sel)
			}
		} else {
			if !st.identity && len(sel) > 0 {
				st.gather(sel, f.valsFor(si, len(sel), ctx))
			}
			sel = st.suppress(sel)
		}
		st.c.In.Add(int64(in))
		st.c.Out.Add(int64(len(sel)))
	}
	f.scratch = sel
	return sel
}

// valsFor returns the values mapping step si gathers n tuples into: the run's
// slab for the chain's last mapping step, the step's own scratch otherwise.
//
//pace:hotpath
func (f *Fused) valsFor(si, n int, ctx exec.Context) []stream.Value {
	st := &f.steps[si]
	need := n * len(st.amap.ToInput)
	if si == f.lastMap {
		return exec.Slab(ctx, need)
	}
	if cap(st.vals) < need {
		st.vals = make([]stream.Value, max(need, 2*cap(st.vals))) //pace:allow-alloc amortised: grows with the largest run seen
	}
	return st.vals[:need]
}

// gather rebuilds the survivors through the step's attribute mapping, column
// by column into vals, then points each survivor at its row.
//
//pace:hotpath
func (st *step) gather(sel []stream.Tuple, vals []stream.Value) {
	w := len(st.amap.ToInput)
	for o, src := range st.amap.ToInput {
		if src >= 0 {
			for i := range sel {
				vals[i*w+o] = sel[i].Values[src]
			}
			continue
		}
		fn := st.fns[o]
		for i := range sel {
			vals[i*w+o] = fn(sel[i])
		}
	}
	for i := range sel {
		sel[i] = stream.Tuple{Values: vals[i*w : (i+1)*w : (i+1)*w], Seq: sel[i].Seq}
	}
}

// suppress drops the survivors the step's guard table suppresses and counts
// them. An ignoring step's table stays empty.
//
//pace:hotpath
func (st *step) suppress(sel []stream.Tuple) []stream.Tuple {
	if st.guards.Active() == 0 {
		return sel
	}
	k := 0
	for _, t := range sel {
		if !st.guards.Suppress(t) {
			sel[k] = t
			k++
		}
	}
	st.c.Suppressed.Add(int64(len(sel) - k))
	return sel[:k]
}

// filter keeps the survivors the select's Cond keeps.
//
//pace:hotpath
func (st *step) filter(sel []stream.Tuple) []stream.Tuple {
	k := 0
	for _, t := range sel {
		if st.cond(t) {
			sel[k] = t
			k++
		}
	}
	return sel[:k]
}

// ProcessPunct implements exec.Operator: the chain relays punctuation iff
// every constituent would. Steps are visited in chain order; a Select
// observes the pattern unchanged, a mapping step relays it through its
// attribute mapping (core.AttrMap.OutputPattern) or consumes it — and a
// consumed punctuation stops the walk exactly where the unfused chain would
// have.
func (f *Fused) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	if out, ok := f.relayPunct(e); ok {
		ctx.EmitPunct(out)
	}
	return nil
}

// relayPunct walks the punctuation through the step table in chain order,
// returning the re-expressed pattern and whether it survived every
// constituent's mapping (false = consumed inside the kernel).
func (f *Fused) relayPunct(e punct.Embedded) (punct.Embedded, bool) {
	cur := e
	for i := range f.steps {
		st := &f.steps[i]
		if st.kind == kSelect || st.identity {
			// Select never remaps; an identity projection/rename relays the
			// pattern unchanged — proved at fuse time, so no re-projection
			// (or allocation) happens per punctuation.
			st.fb.Observe(core.Output, cur)
			continue
		}
		relayed, ok := st.amap.OutputPattern(cur.Pattern)
		if !ok {
			st.c.PunctDropped.Add(1)
			return punct.Embedded{}, false
		}
		cur = punct.NewEmbedded(relayed)
		st.fb.Observe(core.Output, cur)
	}
	return cur, true
}

// ProcessFeedback implements exec.Operator: feedback arrives at the chain's
// downstream end and walks the steps in reverse, exactly as it would hop
// node to node unfused. Each step's responder enacts the constituent's own
// characterization — guards into the step's table (in its output space),
// the pattern re-expressed hop by hop — and the feedback leaves the fused
// node upstream iff every constituent relays it.
func (f *Fused) ProcessFeedback(_ int, fb core.Feedback, ctx exec.Context) error {
	if out, ok := f.applyFeedback(fb); ok {
		ctx.SendFeedback(0, out)
	}
	return nil
}

// applyFeedback hands the feedback from responder to responder in reverse
// chain order and reports whether (and as what pattern) it leaves the
// kernel's upstream end — the core shared by ProcessFeedback and the prefix
// path, which forward upstream differently.
func (f *Fused) applyFeedback(fb core.Feedback) (core.Feedback, bool) {
	for i := len(f.steps) - 1; i >= 0; i-- {
		var up hop
		_ = f.steps[i].fb.Respond(0, fb, &up) // port 0 of a one-output step: cannot fail
		if !up.sent {
			return core.Feedback{}, false
		}
		fb = up.fb
	}
	return fb, true
}

// TelemetryVars implements telemetry.VarExporter: each constituent's own
// pace_op_* tuple counters, from the operator's own TelemetryVars (labelled
// step/kind, preserving the per-logical-operator observability the unfused
// chain had), plus the feedback counters of the kernel as one operator: what
// reached its downstream end, what any constituent acted on, what left its
// upstream end. A constituent's own feedback vars are left out: its steps
// respond through the kernel's responders, never through its own.
func (f *Fused) TelemetryVars() []telemetry.Var {
	exploited := func() (n int64) {
		for i := range f.steps {
			n += f.steps[i].fb.Exploited()
		}
		return n
	}
	vars := exec.FeedbackVars(f.steps[len(f.steps)-1].fb.Received, exploited, f.steps[0].fb.Forwarded)
	for i := range f.steps {
		st := &f.steps[i]
		labels := map[string]string{"step": st.name, "kind": st.kind.String()}
		for _, v := range st.row.(telemetry.VarExporter).TelemetryVars() {
			if !strings.HasPrefix(v.Name, "pace_op_feedback_") {
				v.Labels = labels
				vars = append(vars, v)
			}
		}
	}
	return vars
}

// StepTrace returns the recent feedback responses of constituent i, the
// fused equivalent of the unfused operator's Trace().
//
//pace:allow-unreached the fused ≡ unfused response checks read it; goes with the kernel under ROADMAP item 18
func (f *Fused) StepTrace(i int) []core.Response { return f.steps[i].fb.Trace() }

// Explain renders the kernel's step table, one entry per constituent.
func (f *Fused) Explain() string {
	parts := make([]string, len(f.steps))
	for i := range f.steps {
		st := &f.steps[i]
		d := st.kind.String() + " " + st.name
		if st.kind == kSelect && st.expr != nil {
			d += " [" + st.expr.String() + "]"
		}
		if st.kind != kSelect {
			d += " -> " + st.out.String()
		}
		parts[i] = d
	}
	return strings.Join(parts, " | ")
}

// String describes the operator.
func (f *Fused) String() string {
	return fmt.Sprintf("FUSED[%s]", f.Explain())
}
