package op

import (
	"repro/internal/exec"
	"repro/internal/stream"
)

// Project narrows a stream to a subset of attributes, in Keep's order: a Map
// that only carries. Init builds the Map it embeds (unexported, so Project's
// settable fields are the five below), which does the work —
// tuples, punctuation (relayed iff its bound attributes are kept) and
// feedback (always propagable: every output attribute is carried).
// plan.Stream.Project builds the Map directly.
//
//pace:stateless a Map that only carries: the embedded Map's counters and guards only
type Project struct {
	carrying
	OpName string
	In     stream.Schema
	// Keep lists the input attribute names to retain, in output order.
	Keep []string
	// Mode/Propagate configure feedback response as in Select.
	Mode      FeedbackMode
	Propagate bool
}

// carrying is the Map a Project embeds: an alias, so Map's methods are
// promoted, but unexported, so it adds no settable field.
type carrying = Map

// Name implements exec.Operator.
func (p *Project) Name() string {
	if p.OpName != "" {
		return p.OpName
	}
	return "project"
}

// InSchemas implements exec.Operator.
func (p *Project) InSchemas() []stream.Schema { return []stream.Schema{p.In} }

// OutSchemas implements exec.Operator.
func (p *Project) OutSchemas() []stream.Schema {
	if err := p.Init(); err != nil {
		panic(err.Error())
	}
	return p.carrying.OutSchemas()
}

// Init builds the Map of Keep's carried attributes, reporting a bad
// projection as an error instead of the panic OutSchemas would raise.
// plan.Builder calls it at wiring time so misconfiguration surfaces through
// Builder.Err(). Calling Init again is a cheap no-op once it has succeeded.
func (p *Project) Init() error {
	if p.carrying.Outs == nil {
		outs := make([]MapAttr, len(p.Keep))
		for i, name := range p.Keep {
			outs[i] = Carry(name)
		}
		p.carrying = Map{OpName: p.Name(), In: p.In, Outs: outs, Mode: p.Mode, Propagate: p.Propagate}
	}
	return p.carrying.Init()
}

// Open implements exec.Operator.
func (p *Project) Open(ctx exec.Context) error {
	if err := p.Init(); err != nil {
		return err
	}
	return p.carrying.Open(ctx)
}
