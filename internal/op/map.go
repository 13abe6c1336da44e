package op

import (
	"fmt"

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
	c        Counters
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

// Resolved returns the Map, its attribute mapping and, per output
// attribute, the function that computes it (nil where carried), once Init
// has succeeded. A Project promotes it, handing over the Map its Init
// built: the fused kernel compiles either from this one description.
func (m *Map) Resolved() (*Map, core.AttrMap, []func(stream.Tuple) stream.Value) {
	return m, m.attrMap, m.fns
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

// ProcessTuple implements exec.Operator.
//
//pace:hotpath
func (m *Map) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	m.c.In.Add(1)
	// Carry-all maps (pure renames) share the input's Values: safe
	// because tuples are immutable after emit (DESIGN.md §2.1).
	out := t
	if !m.identity {
		vals := make([]stream.Value, len(m.Outs)) //pace:allow-alloc non-identity maps mint a new tuple whose values downstream owns
		for i, src := range m.attrMap.ToInput {
			if src >= 0 {
				vals[i] = t.At(src)
			} else {
				vals[i] = m.fns[i](t)
			}
		}
		out = stream.Tuple{Values: vals, Seq: t.Seq}
	}
	if m.guards.Suppress(out) {
		m.c.Suppressed.Add(1)
		return nil
	}
	m.c.Out.Add(1)
	ctx.Emit(out)
	return nil
}

// ProcessPunct implements exec.Operator: punctuation relays iff its bound
// attributes are all carried (core.AttrMap.OutputPattern).
func (m *Map) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	if relayed, ok := m.attrMap.OutputPattern(e.Pattern); ok {
		ctx.EmitPunct(punct.NewEmbedded(relayed))
	} else {
		m.c.PunctDropped.Add(1)
	}
	return nil
}

// Characterize implements core.Characterizer: a computed attribute can be
// guarded at the output but blocks propagation, like a join's derived columns.
func (m *Map) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	return core.Stateless(f, guardBoth, m.attrMap)
}

// Counters returns the operator's counters, for a fused step to count into.
func (m *Map) Counters() *Counters { return &m.c }

// TelemetryVars implements telemetry.VarExporter.
func (m *Map) TelemetryVars() []telemetry.Var {
	return append(append(tupleVars(&m.c), m.Responding.TelemetryVars()...), punctDroppedVar(&m.c))
}
