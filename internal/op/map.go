package op

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Map is the general 1-in/1-out stateless transform: each output attribute
// is either carried verbatim from an input attribute or computed by a
// function of the whole input tuple. Carried attributes determine how
// punctuation relays downstream and how feedback propagates upstream, both
// through one core.AttrMap (computed attributes block both, exactly like a
// join's derived columns). A Project is a Map that only carries.
//
//pace:stateless counters and the responder's guards only (core.Responder: guards are exploitation-only)
type Map struct {
	exec.Responding
	OpName string
	In     stream.Schema
	// Outs defines the output attributes in order.
	Outs []MapAttr
	// Mode/Propagate as in Select.
	Mode      FeedbackMode
	Propagate bool

	out      stream.Schema
	attrMap  core.AttrMap
	fns      []func(stream.Tuple) stream.Value // per output attr; nil where carried
	identity bool                              // every output attr carried in input order: no copy
	guards   *core.GuardTable
	c        counters
}

// MapAttr describes one output attribute of a Map.
type MapAttr struct {
	Name string
	// From names the carried input attribute; empty means computed.
	From string
	// Kind is required for computed attributes (ignored when carried).
	Kind stream.Kind
	// Fn computes the value for computed attributes. It must not retain
	// t.Values (nor a slice of it) past its return: inside a fused kernel
	// the argument can be a scratch tuple the next input overwrites
	// (DESIGN.md §2.4). Values copied out of it are safe to keep.
	Fn func(t stream.Tuple) stream.Value
}

// Carry builds a carried output attribute (same name).
func Carry(name string) MapAttr { return MapAttr{Name: name, From: name} }

// Compute builds a computed output attribute. fn reads its argument and
// returns; it must not retain the argument's Values (see MapAttr.Fn).
func Compute(name string, kind stream.Kind, fn func(stream.Tuple) stream.Value) MapAttr {
	return MapAttr{Name: name, Kind: kind, Fn: fn}
}

// Name implements exec.Operator.
func (m *Map) Name() string {
	if m.OpName != "" {
		return m.OpName
	}
	return "map"
}

// InSchemas implements exec.Operator.
func (m *Map) InSchemas() []stream.Schema { return []stream.Schema{m.In} }

// OutSchemas implements exec.Operator.
func (m *Map) OutSchemas() []stream.Schema {
	if m.out.Arity() == 0 {
		m.mustInit()
	}
	return []stream.Schema{m.out}
}

func (m *Map) mustInit() {
	if err := m.Init(); err != nil {
		panic(err.Error())
	}
}

// Init resolves the output attribute list against the input schema,
// reporting misconfiguration (unknown From, missing Fn, bad output schema)
// as an error instead of the panic OutSchemas/Open would raise. plan.Builder
// calls it at wiring time so the failure surfaces through Builder.Err().
// Calling Init again is a cheap no-op once it has succeeded.
func (m *Map) Init() error {
	if m.out.Arity() > 0 {
		return nil
	}
	fields := make([]stream.Field, len(m.Outs))
	toInput := make([]int, len(m.Outs))
	fns := make([]func(stream.Tuple) stream.Value, len(m.Outs))
	for i, o := range m.Outs {
		if o.From != "" {
			src := m.In.Index(o.From)
			if src < 0 {
				return fmt.Errorf("op: map %q: no input attribute %q", m.Name(), o.From)
			}
			fields[i] = stream.F(o.Name, m.In.Field(src).Kind)
			toInput[i] = src
			continue
		}
		if o.Fn == nil {
			return fmt.Errorf("op: map %q: attribute %q is neither carried nor computed", m.Name(), o.Name)
		}
		fields[i] = stream.F(o.Name, o.Kind)
		toInput[i], fns[i] = -1, o.Fn
	}
	out, err := stream.NewSchema(fields...)
	if err != nil {
		return fmt.Errorf("op: map %q: %v", m.Name(), err)
	}
	m.out, m.fns = out, fns
	m.attrMap = core.AttrMap{InputArity: m.In.Arity(), ToInput: toInput}
	m.identity = m.attrMap.IsIdentity()
	return nil
}

// Open implements exec.Operator.
func (m *Map) Open(exec.Context) error {
	if m.out.Arity() == 0 {
		m.mustInit()
	}
	m.Bind(m, m.Mode, m.Propagate, 1, m.out.Arity())
	m.guards = m.OutTables()[0]
	return nil
}

// Computes reports whether some output attribute is computed rather than
// carried: a Map that only carries is a projection.
func (m *Map) Computes() bool { return slices.Contains(m.attrMap.ToInput, -1) }

// Width reports how many values MapRun writes per tuple: the output arity, or
// 0 for a pure rename, whose tuples keep their input's Values (tuples are
// immutable after emit, DESIGN.md §2.1).
func (m *Map) Width() int {
	if m.identity {
		return 0
	}
	return len(m.attrMap.ToInput)
}

// ProcessTuple implements exec.Operator: a run of one through MapRun.
//
//pace:hotpath
func (m *Map) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	one := [1]stream.Tuple{t}
	var vals []stream.Value
	if w := m.Width(); w > 0 {
		vals = make([]stream.Value, w) //pace:allow-alloc non-identity maps mint a new tuple whose values downstream owns
	}
	if out := m.MapRun(one[:], vals); len(out) == 1 {
		ctx.Emit(out[0])
	}
	return nil
}

// MapRun is the map's evaluation: it rebuilds the tuples of run through the
// attribute mapping, column by column into vals (Width() values per tuple,
// each row capped at its length so an append cannot reach the next), then
// drops those its guards suppress, compacting in place. The counters move
// once per run.
//
//pace:hotpath
func (m *Map) MapRun(run []stream.Tuple, vals []stream.Value) []stream.Tuple {
	in := len(run)
	if w := m.Width(); w > 0 {
		for o, src := range m.attrMap.ToInput {
			if src >= 0 {
				for i := range run {
					vals[i*w+o] = run[i].Values[src]
				}
				continue
			}
			fn := m.fns[o]
			for i := range run {
				vals[i*w+o] = fn(run[i])
			}
		}
		for i := range run {
			run[i] = stream.Tuple{Values: vals[i*w : (i+1)*w : (i+1)*w], Seq: run[i].Seq}
		}
	}
	run = m.c.suppress(m.guards, run)
	m.c.count(in, len(run))
	return run
}

// ProcessPunct implements exec.Operator through RelayPattern.
func (m *Map) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	if relayed, ok := m.RelayPattern(e.Pattern); ok {
		ctx.EmitPunct(punct.NewEmbedded(relayed))
	}
	return nil
}

// RelayPattern re-expresses punctuation p over the map's output, relayed iff
// every attribute p binds is carried (core.AttrMap.OutputPattern; a pure
// rename relays p itself). A punctuation it consumes is counted.
func (m *Map) RelayPattern(p punct.Pattern) (punct.Pattern, bool) {
	if m.identity {
		return p, true
	}
	relayed, ok := m.attrMap.OutputPattern(p)
	if !ok {
		m.c.PunctDropped.Add(1)
	}
	return relayed, ok
}

// Characterize implements core.Characterizer: a computed attribute can be
// guarded at the output but blocks propagation, like a join's derived columns.
func (m *Map) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	return core.Stateless(f, guardBoth, m.attrMap)
}

// TelemetryVars implements telemetry.VarExporter.
func (m *Map) TelemetryVars() []telemetry.Var {
	return append(append(tupleVars(&m.c), m.Responding.TelemetryVars()...), punctDroppedVar(&m.c))
}
