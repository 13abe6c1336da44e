// Package fuse is the plan compiler: one scan over exec.Graph (Rewrite) that
// folds maximal chains of adjacent stateless operators (Select, and Map with
// the projections that are Maps that only carry) into the node they feed — a
// standalone Fused node, or a prefix kernel inside a stateful consumer
// (Prefixed). A kernel runs its chain a run at a time, each constituent
// making one pass over the run's survivors through its own run method
// (op.Select.FilterRun, op.Map.MapRun), with no intermediate Emit and no
// page handoff between them.
//
// Fusion is semantics-preserving by the paper's §4.3 characterization of
// stateless operators, and the kernel keeps each composition rule by running
// the constituents themselves (DESIGN.md §10):
//
//   - punctuation relays iff every constituent would relay it (chain order,
//     stopping at the first constituent that must consume it);
//   - feedback walks the constituents in reverse chain order, each one's own
//     ProcessFeedback enacting its own Characterize, and leaves upstream iff
//     every constituent relays it;
//   - each constituent counts into its own counters, so its Stats,
//     CostBurned and pace_op_* series (labelled step) read what they would
//     unfused;
//   - no constituent is a snapshot.Stater, so the fused node is stateless
//     and checkpoint barrier alignment is unchanged.
package fuse

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// constituent is an operator of a fused chain as the kernel reaches it: an
// *op.Select or a mapping, with the responder it embeds (exec.Responding),
// which folds the punctuation the constituent relays and counts the feedback
// it responds to.
type constituent interface {
	exec.Operator
	telemetry.VarExporter
	Observe(stream int, e punct.Embedded)
	Received() int64
	Exploited() int64
	Forwarded() int64
}

// mapping is a constituent that rebuilds tuples: an *op.Map, or a projection,
// whose methods are those of the Map it embeds.
type mapping interface {
	constituent
	Init() error
	Computes() bool
	Width() int
	MapRun(run []stream.Tuple, vals []stream.Value) []stream.Tuple
	RelayPattern(p punct.Pattern) (punct.Pattern, bool)
}

// Fused runs a chain of stateless operators as one exec node.
//
//pace:stateless fuses only stateless operators, whose guards are exploitation-only; scratch is transient within one call
type Fused struct {
	exec.Base
	// ops are the constituents in chain order.
	ops  []constituent
	name string
	// lastMap is the index of the chain's last mapping constituent that
	// rebuilds tuples (Width() > 0), the one that writes emitted tuples (-1:
	// none does, and survivors are the inputs themselves).
	lastMap int
	// vals[i] is the scratch mapping constituent i gathers a run into when
	// it is not the last: read by the next constituent, never leaving
	// runSteps. scratch backs the survivor list and one the run of one of
	// ProcessTuple. All are reused across runs (operators are
	// single-goroutine), transient within one call — never checkpointed.
	vals    [][]stream.Value
	scratch []stream.Tuple
	one     [1]queue.Item
}

// hop is the node's context as a constituent sees it while feedback walks
// the chain: what the constituent relays upstream is caught, to hand to the
// constituent before it.
type hop struct {
	exec.Context
	fb   core.Feedback
	sent bool
}

// SendFeedback implements exec.Context.
func (h *hop) SendFeedback(_ int, f core.Feedback) { h.fb, h.sent = f, true }

// New builds a fused kernel from a chain of operators (upstream→downstream).
// Every operator must be a *op.Select or a mapping; a mapping's
// misconfiguration surfaces as an error (via Init), not a panic.
func New(ops []exec.Operator) (*Fused, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("fuse: empty chain")
	}
	f := &Fused{ops: make([]constituent, len(ops)), vals: make([][]stream.Value, len(ops)), lastMap: -1}
	for i, o := range ops {
		c, err := constituentOf(o)
		if err != nil {
			return nil, err
		}
		if m, ok := c.(mapping); ok && m.Width() > 0 {
			f.lastMap = i
		}
		f.ops[i] = c
	}
	f.name = "fused(" + strings.Join(f.stepNames(), "+") + ")"
	return f, nil
}

// constituentOf returns o as a constituent, or why it cannot be one.
func constituentOf(o exec.Operator) (constituent, error) {
	switch o := o.(type) {
	case *op.Select:
		return o, nil
	case mapping:
		if err := o.Init(); err != nil {
			return nil, fmt.Errorf("fuse: %v", err)
		}
		return o, nil
	}
	return nil, fmt.Errorf("fuse: %q (%T) is not a fusible operator", o.Name(), o)
}

// stepNames returns the constituents' names in chain order.
func (f *Fused) stepNames() []string {
	names := make([]string, len(f.ops))
	for i, c := range f.ops {
		names[i] = c.Name()
	}
	return names
}

// Name implements exec.Operator.
func (f *Fused) Name() string { return f.name }

// InSchemas implements exec.Operator.
func (f *Fused) InSchemas() []stream.Schema { return f.ops[0].InSchemas() }

// OutSchemas implements exec.Operator.
func (f *Fused) OutSchemas() []stream.Schema { return f.ops[len(f.ops)-1].OutSchemas() }

// Open implements exec.Operator: each constituent opens, binding its own
// responder.
func (f *Fused) Open(ctx exec.Context) error {
	for _, c := range f.ops {
		if err := c.Open(ctx); err != nil {
			return err
		}
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
// once into f.scratch, the survivor list, and each constituent makes one pass
// over the survivors in chain order through its own run method, which
// compacts them in place like a selection vector. The returned slice is
// f.scratch and valid until the next call: the caller hands it off (emit or
// batch-apply) before then.
//
// Each output tuple is written once. A mapping that is not the chain's last
// gathers into its own scratch (f.vals, grown with the largest run seen),
// which the next constituent reads and nothing else ever sees; the last one
// gathers into the run's slab, drawn from ctx (exec.Slab: recycled memory the
// output pages will own) and sized for the tuples that reach it. A chain
// with no mapping that rebuilds draws nothing, and neither does a run that
// no tuple survives to the last one.
//
//pace:hotpath
func (f *Fused) runSteps(items []queue.Item, ctx exec.Context) []stream.Tuple {
	run := f.scratch[:0]
	for i := range items {
		run = append(run, items[i].Tuple)
	}
	for i, c := range f.ops {
		switch c := c.(type) {
		case *op.Select:
			run = c.FilterRun(run)
		case mapping:
			run = c.MapRun(run, f.valsFor(i, len(run)*c.Width(), ctx))
		}
	}
	f.scratch = run
	return run
}

// valsFor returns the need values mapping constituent i gathers into: the
// run's slab for the chain's last, its own scratch otherwise.
//
//pace:hotpath
func (f *Fused) valsFor(i, need int, ctx exec.Context) []stream.Value {
	if need == 0 {
		return nil
	}
	if i == f.lastMap {
		return exec.Slab(ctx, need)
	}
	if cap(f.vals[i]) < need {
		f.vals[i] = make([]stream.Value, max(need, 2*cap(f.vals[i]))) //pace:allow-alloc amortised: grows with the largest run seen
	}
	return f.vals[i][:need]
}

// ProcessPunct implements exec.Operator: the chain relays punctuation iff
// every constituent would.
func (f *Fused) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	if out, ok := f.relayPunct(e); ok {
		ctx.EmitPunct(out)
	}
	return nil
}

// relayPunct walks the punctuation through the constituents in chain order,
// returning the re-expressed pattern and whether it survived every one
// (false = consumed inside the kernel). A Select passes the pattern on
// unchanged; a mapping re-expresses it over its output (RelayPattern) or
// consumes it, which stops the walk exactly where the unfused chain would
// have. Each constituent's responder folds what it relays, as the runtime
// folds what an unfused operator emits (§4.4).
func (f *Fused) relayPunct(e punct.Embedded) (punct.Embedded, bool) {
	for _, c := range f.ops {
		if m, ok := c.(mapping); ok {
			p, ok := m.RelayPattern(e.Pattern)
			if !ok {
				return punct.Embedded{}, false
			}
			e = punct.NewEmbedded(p)
		}
		c.Observe(core.Output, e)
	}
	return e, true
}

// ProcessFeedback implements exec.Operator: feedback arrives at the chain's
// downstream end and walks the constituents in reverse, exactly as it would
// hop node to node unfused, and leaves the fused node upstream iff every
// constituent relays it.
func (f *Fused) ProcessFeedback(_ int, fb core.Feedback, ctx exec.Context) error {
	if out, ok := f.applyFeedback(fb, ctx); ok {
		ctx.SendFeedback(0, out)
	}
	return nil
}

// applyFeedback hands the feedback to each constituent's own ProcessFeedback
// in reverse chain order, each relaying into a hop over ctx, and reports
// whether (and as what pattern) it leaves the kernel's upstream end — the
// core shared by ProcessFeedback and the prefix path, which forward upstream
// differently.
func (f *Fused) applyFeedback(fb core.Feedback, ctx exec.Context) (core.Feedback, bool) {
	up := &hop{Context: ctx}
	for i := len(f.ops) - 1; i >= 0; i-- {
		up.sent = false
		_ = f.ops[i].ProcessFeedback(0, fb, up) // a stateless responder's port 0: cannot fail
		if !up.sent {
			return core.Feedback{}, false
		}
		fb = up.fb
	}
	return fb, true
}

// TelemetryVars implements telemetry.VarExporter: each constituent's own
// pace_op_* tuple counters, from its own TelemetryVars (labelled step/kind,
// preserving the per-logical-operator observability the unfused chain had),
// plus the feedback counters of the kernel as one operator: what reached its
// downstream end, what any constituent acted on, what left its upstream end.
func (f *Fused) TelemetryVars() []telemetry.Var {
	exploited := func() (n int64) {
		for _, c := range f.ops {
			n += c.Exploited()
		}
		return n
	}
	vars := exec.FeedbackVars(f.ops[len(f.ops)-1].Received, exploited, f.ops[0].Forwarded)
	for _, c := range f.ops {
		labels := map[string]string{"step": c.Name(), "kind": kind(c)}
		for _, v := range c.TelemetryVars() {
			if !strings.HasPrefix(v.Name, "pace_op_feedback_") {
				v.Labels = labels
				vars = append(vars, v)
			}
		}
	}
	return vars
}

// kind labels a constituent by what it does, not by its type: a mapping
// that only carries is a project, one that computes an attribute a map.
func kind(c constituent) string {
	switch m, ok := c.(mapping); {
	case !ok:
		return "select"
	case m.Computes():
		return "map"
	}
	return "project"
}

// Explain renders the chain, one entry per constituent.
func (f *Fused) Explain() string {
	parts := make([]string, len(f.ops))
	for i, c := range f.ops {
		d := kind(c) + " " + c.Name()
		if s, ok := c.(*op.Select); !ok {
			d += " -> " + c.OutSchemas()[0].String()
		} else if s.Expr != nil {
			d += " [" + s.Expr.String() + "]"
		}
		parts[i] = d
	}
	return strings.Join(parts, " | ")
}

// String describes the operator.
func (f *Fused) String() string {
	return fmt.Sprintf("FUSED[%s]", f.Explain())
}
