package exec

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Script is what Drive plays, one step per Next call of its scripted source,
// in written order; Drive plays its scripts in sequence.
type Script []step

type step struct {
	port    int
	item    queue.Item // tuple, punctuation or EOS
	fb      *core.Feedback
	call    func(*Trace)
	restore []byte
}

func steps[T any](port int, xs []T, of func(T) step) Script {
	s := make(Script, len(xs))
	for i, x := range xs {
		s[i] = of(x)
		s[i].port = port
	}
	return s
}

// Tuples plays tuples into input in, each rebuilt in a recycled Slab: an
// operator that keeps one without Clone reads a later step's values (garbage
// of no kind under -race).
func Tuples(in int, ts ...stream.Tuple) Script {
	return steps(in, ts, func(t stream.Tuple) step { return step{item: queue.TupleItem(t)} })
}

// Punct plays embedded punctuation into input in.
//
//pace:allow-unreached Drive's script API, shared by the operator tests of every package
func Punct(in int, es ...punct.Embedded) Script {
	return steps(in, es, func(e punct.Embedded) step { return step{item: queue.PunctItem(e)} })
}

// Items plays a recorded stream — tuples, punctuation, EOS — into input in.
func Items(in int, its ...queue.Item) Script {
	return steps(in, its, func(it queue.Item) step { return step{item: it} })
}

// EOS ends input in; the operator closes once every input has ended.
//
//pace:allow-unreached Drive's script API, shared by the operator tests of every package
func EOS(in int) Script { return Items(in, queue.EOSItem()) }

// Feedback sends feedback to the operator through output out, from the sink
// recording that output: the operator handles it before the next step.
func Feedback(out int, fs ...core.Feedback) Script {
	return steps(out, fs, func(f core.Feedback) step { return step{fb: &f} })
}

// Call runs f between two steps on the plan's one goroutine, the operator
// idle. A panic in f is the run's error.
//
//pace:allow-unreached Drive's script API, shared by the operator tests of every package
func Call(f func(*Trace)) Script { return Script{{call: f}} }

// Restore, as a script's first step, stages blob as the operator's state
// through Graph.RestoreChain.
//
//pace:allow-unreached Drive's script API, shared by the operator tests of every package
func Restore(blob []byte) Script { return Script{{restore: blob}} }

// Trace is what a run recorded.
type Trace struct {
	Out  []*Collector      // per output of the driven node, in arrival order
	Sent [][]core.Feedback // per input of the driven operator, what it sent upstream
	Err  error
}

// Drive runs op on the production runner, the whole plan on one goroutine: a
// scripted source with one output per input of op plays the script on
// one-item pages, and a recording sink with one input per output of op keeps
// what op emits. Inputs the script leaves open end after its last step, so op
// closes as at the end of a stream.
//
// Every stream keeps its punctuation's promise (§3.1): a script that sends a
// tuple its earlier punctuation covers is refused before it runs, and a
// tuple of op's output that op's earlier punctuation covers is the run's
// error (Collector).
func Drive(op Operator, script ...Script) *Trace { return DriveChain([]Operator{op}, script...) }

// DriveChain is Drive over ops in a line, each one's output 0 feeding the
// next one's input 0: the script plays into the first, and feeds back to and
// records the last.
func DriveChain(ops []Operator, script ...Script) *Trace {
	ins := ops[0].InSchemas()
	tr := &Trace{Sent: make([][]core.Feedback, len(ins))}
	src := &scripted{schemas: ins, trace: tr, steps: slices.Concat(script...)}
	fed := make([][]queue.Item, len(ins))
	for _, st := range src.steps {
		if st.call == nil && st.fb == nil && st.restore == nil {
			fed[st.port] = append(fed[st.port], st.item)
		}
	}
	for in, items := range fed {
		if err := PromiseBreach(ins[in].Arity(), items); err != nil {
			tr.Err = fmt.Errorf("exec: the script's input %d: %w", in, err)
			return tr
		}
	}
	g := NewGraph()
	g.SetQueueOptions(queue.Options{PageSize: 1})
	sid := g.AddSource(src)
	ports := make([]Port, len(ins))
	for i := range ports {
		ports[i] = FromPort(sid, i)
	}
	first := g.Add(ops[0], ports...)
	id := first
	for _, op := range ops[1:] {
		id = g.Add(op, From(id))
	}
	src.sink = tr.record(g, id)
	if len(src.steps) > 0 && src.steps[0].restore != nil {
		snap := &snapshot.Snapshot{Nodes: make([]snapshot.NodeState, len(g.nodes))}
		for i, n := range g.nodes {
			snap.Nodes[i] = snapshot.NodeState{ID: i, Name: n.name()}
		}
		snap.Nodes[first].State, src.steps = src.steps[0].restore, src.steps[1:]
		if tr.Err = g.RestoreChain(snap); tr.Err != nil {
			return tr
		}
	}
	tr.Err = g.Run()
	return tr
}

// DriveSource runs src on the production runner into a recording sink, to the
// end of its stream. The sink sends fb from Open: src handles it before its
// first Next.
//
//pace:allow-unreached Drive's script API, shared by the operator tests of every package
func DriveSource(src Source, fb ...core.Feedback) *Trace {
	tr, g := &Trace{}, NewGraph()
	tr.record(g, g.AddSource(src)).atOpen = fb
	tr.Err = g.Run()
	return tr
}

// record wires a recording sink to every output of node id, if any.
func (tr *Trace) record(g *Graph, id NodeID) *recorder {
	n := g.nodes[id]
	outs := n.outSchemas()
	if len(outs) == 0 {
		return nil
	}
	ports := make([]Port, len(outs))
	for k, s := range outs {
		tr.Out = append(tr.Out, NewCollector(fmt.Sprintf("out%d", k), s))
		ports[k] = FromPort(id, k)
	}
	rec := &recorder{of: n.name(), ports: tr.Out, schemas: outs}
	g.Add(rec, ports...)
	return rec
}

// scripted is Drive's source: one step per Next, and what reaches it
// recorded in Sent.
//
//pace:stateless a test script; a restore targets the driven operator, never the script
type scripted struct {
	Base
	schemas []stream.Schema
	steps   Script
	trace   *Trace
	sink    *recorder
	pos     int
}

func (s *scripted) Name() string                { return "script" }
func (s *scripted) OutSchemas() []stream.Schema { return s.schemas }
func (s *scripted) NeverBlocks()                {}

func (s *scripted) Next(ctx Context) (bool, error) {
	if s.pos == len(s.steps) {
		return false, nil // a call of its own: the last step's control is handled first
	}
	st := s.steps[s.pos]
	s.pos++
	switch {
	case st.call != nil:
		st.call(s.trace)
	case st.fb != nil:
		s.sink.ctx.SendFeedback(st.port, *st.fb)
	case st.restore != nil:
		return false, fmt.Errorf("exec: a restore is only a script's first step")
	case st.item.Kind == queue.ItemTuple:
		t := st.item.Tuple
		vals := Slab(ctx, len(t.Values))
		copy(vals, t.Values)
		t.Values = vals[:len(t.Values):len(t.Values)]
		ctx.EmitTo(st.port, t)
	case st.item.Kind == queue.ItemPunct:
		ctx.EmitPunctTo(st.port, *st.item.Punct)
	case st.item.Kind == queue.ItemEOS:
		ctx.(*nodeRunner).node.outConns[st.port].CloseSend()
	}
	return true, nil
}

func (s *scripted) ProcessFeedback(out int, f core.Feedback, _ Context) error {
	s.trace.Sent[out] = append(s.trace.Sent[out], f)
	return nil
}

// recorder is the driven node's sink: input k records its output k. It sends
// atOpen to output 0 from Open, and a feedback step through its Context.
type recorder struct {
	Base
	of      string // the driven node's name
	ports   []*Collector
	schemas []stream.Schema
	atOpen  []core.Feedback
	ctx     Context
}

func (r *recorder) Open(ctx Context) error {
	r.ctx = ctx
	for _, f := range r.atOpen {
		ctx.SendFeedback(0, f)
	}
	return nil
}

func (r *recorder) Name() string                { return "recorder" }
func (r *recorder) InSchemas() []stream.Schema  { return r.schemas }
func (r *recorder) OutSchemas() []stream.Schema { return nil }

func (r *recorder) ProcessTuple(in int, t stream.Tuple, ctx Context) error {
	if err := r.ports[in].ProcessTuple(0, t, ctx); err != nil {
		return fmt.Errorf("%q output %d: %w", r.of, in, err)
	}
	return nil
}
func (r *recorder) ProcessPunct(in int, e punct.Embedded, ctx Context) error {
	return r.ports[in].ProcessPunct(0, e, ctx)
}
