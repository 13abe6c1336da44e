// Package plan provides two higher-level ways to assemble query plans over
// the exec runtime: a fluent Builder for Go code, and a small SQL-like
// query language (query.go) that covers the paper's §3.3 syntax, including
// the WITH PACE clause:
//
//	SELECT * FROM stream1 UNION stream2
//	WITH PACE ON ts 1 MINUTE
package plan

import (
	"cmp"
	"fmt"
	"net"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fuse"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/remote"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// Builder assembles an exec.Graph incrementally. Errors accumulate and
// surface at Run/Build, keeping call sites chainable.
type Builder struct {
	g     *exec.Graph // the coordinating part's graph
	parts []*part     // the coordinating part first, then each placed part
	errs  []error
	// Feedback defaults applied to operators the builder creates.
	Mode      op.FeedbackMode
	Propagate bool
}

// Coordinator names the part that holds the plan's sources and coordinates
// its checkpoints: the whole plan, until a stream is placed elsewhere.
const Coordinator = "coord"

// part is one process's share of a placed plan (Stream.Place): its own
// graph and, for a follower part, the cut edge that feeds it — a remote
// sink on the coordinating part and the remote source that opens this one.
type part struct {
	name string
	g    *exec.Graph
	sink *remote.Sink
	src  *remote.Source
}

// New creates an empty builder with feedback exploitation enabled (the
// library's reason to exist); set Mode to op.FeedbackIgnore for baselines.
func New() *Builder {
	g := exec.NewGraph()
	return &Builder{g: g, parts: []*part{{name: Coordinator, g: g}}, Mode: op.FeedbackExploit, Propagate: true}
}

// Graph exposes the coordinating part's graph (e.g. to set queue options).
func (b *Builder) Graph() *exec.Graph { return b.g }

// Parts names the plan's parts, the coordinating one first.
func (b *Builder) Parts() []string {
	names := make([]string, len(b.parts))
	for i, p := range b.parts {
		names[i] = p.name
	}
	return names
}

// GraphOf returns the named part's graph, nil when there is no such part.
func (b *Builder) GraphOf(name string) *exec.Graph {
	if p := b.part(name); p != nil {
		return p.g
	}
	return nil
}

func (b *Builder) part(name string) *part {
	for _, p := range b.parts {
		if p.name == name {
			return p
		}
	}
	return nil
}

func (b *Builder) fail(format string, args ...any) Stream {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return Stream{b: b, bad: true}
}

// Err returns the first accumulated error.
func (b *Builder) Err() error {
	if len(b.errs) > 0 {
		return b.errs[0]
	}
	return nil
}

// Compile runs the plan-compiler passes over the assembled graph — today one
// pass, operator fusion (internal/fuse), which collapses maximal chains of
// adjacent stateless operators into single flat-kernel nodes. Each part's
// graph is rewritten on its own, so nothing fuses across a cut. Call it after
// the plan is fully assembled (sinks included) and before Deploy or Run: a
// checkpoint names every node, so a compiled plan only restores checkpoints
// taken from an identically compiled plan. Compile is chainable and a no-op
// on a plan that already has errors.
func (b *Builder) Compile() *Builder {
	for _, p := range b.parts {
		if len(b.errs) > 0 {
			break
		}
		if _, err := fuse.Rewrite(p.g); err != nil {
			b.errs = append(b.errs, err)
		}
	}
	return b
}

// EnableTelemetry attaches a telemetry sink to the coordinating part's graph
// and publishes this plan as the sink's /statusz payload — the Explain
// rendering plus live per-edge traffic snapshots and the process-wide
// counters (slab requests and pool misses) pulled at scrape time.
// Call after the plan is assembled (and compiled, if it will be) and
// before Run; chainable. Per-node metrics register inside Run.
func (b *Builder) EnableTelemetry(t *telemetry.Telemetry) *Builder {
	if t == nil {
		return b
	}
	b.g.SetTelemetry(t)
	t.SetStatus(func() any {
		return map[string]any{
			"plan":    b.Explain(),
			"edges":   t.Registry.EdgeSnapshots(),
			"globals": t.Registry.Globals(),
		}
	})
	return b
}

// Explain renders the (possibly compiled) plan, one line per node with its
// input wiring — "(chained)" when the node runs on its producer's goroutine
// (exec.Graph.Chained) — and fused nodes additionally render their kernel's
// constituents, so fusion decisions are inspectable (cmd/paceql -explain). A placed
// plan renders each part under its name, the cut's remote sink and source
// included.
func (b *Builder) Explain() string {
	var sb strings.Builder
	for _, p := range b.parts {
		if len(b.parts) > 1 {
			fmt.Fprintf(&sb, "part %s:\n", p.name)
		}
		g := p.g
		for id := 0; id < g.NumNodes(); id++ {
			nid := exec.NodeID(id)
			if g.IsSource(nid) {
				fmt.Fprintf(&sb, "%2d: source %s\n", id, g.NameAt(nid))
				continue
			}
			ins := g.InputsOf(nid)
			froms := make([]string, len(ins))
			for i, in := range ins {
				froms[i] = fmt.Sprintf("%s[%d]", g.NameAt(in.Node), in.Out)
			}
			o := g.OperatorAt(nid)
			chained := ""
			if g.Chained(nid) {
				chained = " (chained)"
			}
			fmt.Fprintf(&sb, "%2d: %s <- %s%s\n", id, o.Name(), strings.Join(froms, ", "), chained)
			if ex, ok := o.(interface{ Explain() string }); ok {
				fmt.Fprintf(&sb, "      kernel: %s\n", ex.Explain())
			}
		}
	}
	return sb.String()
}

// Run validates and executes the plan. A placed plan runs every part in this
// process, each cut edge over a pipe, with no checkpoints: the reference a
// deployment's results are held to.
func (b *Builder) Run() error {
	if err := b.Err(); err != nil {
		return err
	}
	var conns []net.Conn
	for _, p := range b.parts[1:] {
		p.sink.Conn, p.src.Conn = net.Pipe()
		conns = append(conns, p.sink.Conn, p.src.Conn)
	}
	errs := make(chan error, len(b.parts))
	for _, p := range b.parts {
		go func() {
			err := p.g.Run()
			if err != nil {
				// A part that fails before its edges open never closes
				// them: close every pipe, so no peer waits on it forever.
				closeAll(conns)
			}
			errs <- err
		}()
	}
	var first error
	for range b.parts {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stream is a named handle on one operator output port.
type Stream struct {
	b      *Builder
	p      *part
	port   exec.Port
	schema stream.Schema
	bad    bool
}

// Schema returns the stream's schema.
func (s Stream) Schema() stream.Schema { return s.schema }

// Source registers a source and returns its output stream.
func (b *Builder) Source(src exec.Source) Stream {
	if len(src.OutSchemas()) != 1 {
		return b.fail("plan: source %q must have exactly one output", src.Name())
	}
	id := b.g.AddSource(src)
	return Stream{b: b, p: b.parts[0], port: exec.From(id), schema: src.OutSchemas()[0]}
}

// node is the one place a Stream method adds a node to the plan. The node's
// inputs are ins, in order, and mk builds its operator from their schemas.
// Nothing is added when a stream carries an earlier error (that error stands
// for this node too); the plan fails here when mk does, when a stream belongs
// to another builder or another part, or when the operator does not take
// these streams' schemas or has other than outputs outputs. It returns the
// node's first output (a bad stream when nothing was added).
func (b *Builder) node(outputs int, mk func() (exec.Operator, error), ins ...Stream) Stream {
	for _, in := range ins {
		if in.bad {
			return Stream{b: b, bad: true}
		}
	}
	o, err := mk()
	if err != nil {
		return b.fail("plan: %v", err)
	}
	// Operators with eager validation (op.Map, for one) report
	// misconfiguration here instead of panicking inside OutSchemas below.
	if init, ok := o.(interface{ Init() error }); ok {
		if err := init.Init(); err != nil {
			return b.fail("plan: %v", err)
		}
	}
	if len(o.InSchemas()) != len(ins) || len(o.OutSchemas()) != outputs {
		return b.fail("plan: %q has %d inputs and %d outputs, want %d and %d",
			o.Name(), len(o.InSchemas()), len(o.OutSchemas()), len(ins), outputs)
	}
	ports := make([]exec.Port, len(ins))
	for i, in := range ins {
		if in.b != b {
			return b.fail("plan: %q: input %d is a stream of another builder", o.Name(), i)
		}
		if in.p != ins[0].p {
			return b.fail("plan: %q: input %d is on part %s, input 0 on part %s", o.Name(), i, in.p.name, ins[0].p.name)
		}
		if want := o.InSchemas()[i]; !want.Equal(in.schema) {
			return b.fail("plan: %q: input %d schema %s does not match stream schema %s", o.Name(), i, want, in.schema)
		}
		ports[i] = in.port
	}
	p := ins[0].p
	out := Stream{b: b, p: p, port: exec.From(p.g.Add(o, ports...))}
	if outputs > 0 {
		out.schema = o.OutSchemas()[0]
	}
	return out
}

// Select appends a filter stage.
func (s Stream) Select(name string, cond func(stream.Tuple) bool) Stream {
	return s.Through(&op.Select{OpName: name, Schema: s.schema, Cond: cond, Mode: s.b.Mode, Propagate: s.b.Propagate})
}

// SelectExpr appends a filter evaluated by a compiled predicate conjunction
// (punct.Expr, the evaluation form guards compile feedback patterns to)
// instead of a closure — the form PaceQL WHERE clauses compile to and the
// one fused kernels run a run at a time. Steps are resolved against the
// stream schema at wiring time; a bad column surfaces via Builder.Err().
func (s Stream) SelectExpr(name string, steps ...punct.ExprStep) Stream {
	return s.b.node(1, func() (exec.Operator, error) {
		e, err := punct.NewExpr(s.schema.Arity(), steps...)
		if err != nil {
			return nil, fmt.Errorf("select %q: %v", name, err)
		}
		return &op.Select{OpName: name, Schema: s.schema, Expr: e, Mode: s.b.Mode, Propagate: s.b.Propagate}, nil
	}, s)
}

// Project appends an attribute projection: a Map that only carries the
// kept attributes, in order, validated at wiring time like Map's.
func (s Stream) Project(name string, keep ...string) Stream {
	outs := make([]op.MapAttr, len(keep))
	for i, k := range keep {
		outs[i] = op.Carry(k)
	}
	return s.Map(name, outs...)
}

// Map appends a stateless attribute transform (carried and computed output
// attributes; see op.Map). The attribute list is validated at wiring time,
// surfacing misconfiguration through Builder.Err().
func (s Stream) Map(name string, outs ...op.MapAttr) Stream {
	return s.Through(&op.Map{OpName: name, In: s.schema, Outs: outs, Mode: s.b.Mode, Propagate: s.b.Propagate})
}

// Duplicate fans the stream out n ≥ 1 ways.
func (s Stream) Duplicate(name string, n int) []Stream {
	if n < 1 {
		s.b.fail("plan: duplicate %q: need n ≥ 1, got %d", name, n)
		return nil
	}
	return s.fanOut(n, &op.Duplicate{OpName: name, Schema: s.schema, N: n, Mode: s.b.Mode, Propagate: s.b.Propagate})
}

// Split partitions the stream n ≥ 1 ways, each tuple to the one output a
// hash of the named key attributes picks (round robin when key is empty):
// Parallel's exchange split, for partitions that feed different consumers.
// Unlike Duplicate's, its outputs are disjoint, so desired feedback crosses
// it at once (op.Split).
func (s Stream) Split(name string, n int, key ...string) []Stream {
	if n < 1 {
		s.b.fail("plan: split %q: need n ≥ 1, got %d", name, n)
		return nil
	}
	keyIdx, err := attrs(s.schema, key...)
	if err != nil && !s.bad {
		s.b.fail("plan: split %q: %v", name, err)
		return nil
	}
	return s.fanOut(n, &op.Split{OpName: name, Schema: s.schema, N: n, Key: keyIdx, Mode: s.b.Mode, Propagate: s.b.Propagate})
}

// fanOut appends o, fed by this stream, and returns its n outputs.
func (s Stream) fanOut(n int, o exec.Operator) []Stream {
	first := s.b.node(n, func() (exec.Operator, error) { return o, nil }, s)
	out := make([]Stream, n)
	for i := range out {
		out[i] = Stream{b: s.b, p: s.p, port: exec.FromPort(first.port.Node, i), schema: s.schema, bad: first.bad}
	}
	return out
}

// Union merges this stream with others of the same schema; punctuation is
// forwarded once every input has asserted it (op.Merge).
func (s Stream) Union(name string, others ...Stream) Stream {
	return s.Through(&op.Merge{OpName: name, Schema: s.schema, K: 1 + len(others), Mode: s.b.Mode, Propagate: s.b.Propagate}, others...)
}

// Pace merges this stream with others under a divergence bound on the
// named timestamp attribute, producing assumed feedback when dropping.
func (s Stream) Pace(name string, tsAttr string, toleranceMicros int64, others ...Stream) Stream {
	return s.b.node(1, func() (exec.Operator, error) {
		idx := s.schema.Index(tsAttr)
		if idx < 0 {
			return nil, fmt.Errorf("pace %q: no attribute %q", name, tsAttr)
		}
		return &op.Pace{
			OpName: name, Schema: s.schema, K: 1 + len(others), TsAttr: idx,
			Tolerance: toleranceMicros, FeedbackEnabled: s.b.Mode != op.FeedbackIgnore,
		}, nil
	}, append([]Stream{s}, others...)...)
}

// attrs resolves attribute names against a schema.
func attrs(sch stream.Schema, names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		if out[i] = sch.Index(n); out[i] < 0 {
			return nil, fmt.Errorf("no attribute %q in %s", n, sch)
		}
	}
	return out, nil
}

// optAttr resolves an optional attribute name: "" is -1, none.
func optAttr(sch stream.Schema, name string) (int, error) {
	if name == "" {
		return -1, nil
	}
	i, err := attrs(sch, name)
	if err != nil {
		return -1, err
	}
	return i[0], nil
}

// Aggregate appends a windowed grouped aggregate; valAttr may be empty
// (COUNT).
func (s Stream) Aggregate(name string, kind core.AggKind, tsAttr, valAttr string, groupBy []string, win window.Spec, valueName string) Stream {
	return s.b.node(1, func() (exec.Operator, error) {
		ts, err1 := attrs(s.schema, tsAttr)
		val, err2 := optAttr(s.schema, valAttr)
		groups, err3 := attrs(s.schema, groupBy...)
		if err := cmp.Or(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("aggregate %q: %v", name, err)
		}
		return &op.Aggregate{
			OpName: name, In: s.schema, Kind: kind,
			TsAttr: ts[0], ValAttr: val, GroupBy: groups,
			Window: win, ValueName: valueName,
			Mode: s.b.Mode, Propagate: s.b.Propagate,
		}, nil
	}, s)
}

// Through appends a caller-constructed operator with one output, fed by this
// stream and then others, in input order — the escape hatch for operator
// knobs the fluent methods do not expose (op.Aggregate.Cost, op.Pace's
// feedback slack, a Join's adaptive feedback). The operator's input schemas
// must match the streams.
func (s Stream) Through(o exec.Operator, others ...Stream) Stream {
	return s.b.node(1, func() (exec.Operator, error) { return o, nil }, append([]Stream{s}, others...)...)
}

// Parallel replicates a sub-plan n ways between a partitioning Split and a
// punctuation-aligning Merge: tuples are hash-routed on the named key
// attributes (round-robin when key is empty — only safe for stateless,
// keyless stages), each partition runs its own replica of the operators
// sub builds, and the merged output forwards punctuation only once every
// partition has covered it. Feedback crosses both exchange boundaries:
// the merge fans it to every partition, and the split relays it toward
// the producer (see op.Split/op.Merge).
//
// sub is invoked n times, once per partition, and must consume exactly the
// stream it is given; every invocation must produce the same schema. For a
// partitioned stateful operator (Aggregate, Join) the key must cover its
// grouping attributes so all tuples of one group land in one partition.
func (s Stream) Parallel(name string, n int, key []string, sub func(Stream) Stream) Stream {
	if s.bad {
		return s
	}
	if n <= 0 {
		return s.b.fail("plan: parallel %q: need n ≥ 1, got %d", name, n)
	}
	if sub == nil {
		return s.b.fail("plan: parallel %q: nil sub-plan", name)
	}
	split := s.Split(name+".split", n, key...)
	if split == nil {
		return Stream{b: s.b, bad: true}
	}
	branches := make([]Stream, n)
	for i, in := range split {
		label := fmt.Sprintf("part=%d/%d", i, n)
		s.p.g.LabelEdge(in.port, label)
		branches[i] = sub(in)
		if branches[i].b == s.b && !branches[i].bad {
			branches[i].p.g.LabelEdge(branches[i].port, label)
		}
	}
	// Every replica must hand back a stream of this plan with replica 0's
	// schema: the merge's inputs say so.
	return s.b.node(1, func() (exec.Operator, error) {
		return &op.Merge{OpName: name + ".merge", Schema: branches[0].schema, K: n, Mode: s.b.Mode, Propagate: s.b.Propagate}, nil
	}, branches...)
}

// Collect terminates the stream in a recording sink and returns it.
func (s Stream) Collect(name string) *exec.Collector {
	c := exec.NewCollector(name, s.schema)
	s.Into(c)
	return c
}

// Into terminates the stream in a caller-provided sink operator.
func (s Stream) Into(sink exec.Operator) {
	s.b.node(0, func() (exec.Operator, error) { return sink, nil }, s)
}

// ---------------------------------------------------------------------------
// Placement, remote edges and distributed checkpoint coordination.
// ---------------------------------------------------------------------------

// Place marks that the stream's consumers run on part, another process: the
// edge is cut into a remote sink on this stream's part and a remote source
// that opens part's graph, joined by pipes under Run and by a Transport under
// Deploy. The part that holds the sources (Coordinator) coordinates; Deploy
// supports follower parts fed directly by it, one cut edge each, and the plan
// fails on any other placement, naming the edge.
func (s Stream) Place(name string) Stream {
	if s.bad || name == s.p.name {
		return s
	}
	b := s.b
	edge := fmt.Sprintf("%s[%d] -> %s", s.p.g.NameAt(s.port.Node), s.port.Out, name)
	switch {
	case s.p.name != Coordinator:
		return b.fail("plan: place %s: part %s is a follower; only %s feeds other parts", edge, s.p.name, Coordinator)
	case name == "" || b.part(name) != nil:
		return b.fail("plan: place %s: part %q is unnamed, the coordinating part, or fed already", edge, name)
	}
	p := &part{name: name, g: exec.NewGraph(), sink: s.IntoRemote("to-"+name, nil),
		src: remote.NewSource("from-"+Coordinator, s.schema, nil)}
	b.parts = append(b.parts, p)
	return Stream{b: b, p: p, port: exec.From(p.g.AddSource(p.src)), schema: s.schema}
}

// RemoteSource registers a source replaying a remote subplan's stream from
// conn; with a DistFollower attached, checkpoint barriers arriving on the
// connection cut this subplan at the producer's epoch.
func (b *Builder) RemoteSource(name string, schema stream.Schema, conn net.Conn) Stream {
	return b.Source(remote.NewSource(name, schema, conn))
}

// IntoRemote terminates the stream in a remote sink framing it onto conn
// (Place binds the conn at run time) and returns the sink, for WriteTimeout
// tuning. The sink forwards checkpoint barriers in-band.
func (s Stream) IntoRemote(name string, conn net.Conn) *remote.Sink {
	sink := remote.NewSink(name, s.schema, conn)
	s.Into(sink)
	return sink
}

// DistCoordinate wraps the built plan as the coordinator of its checkpoints
// (see exec.DistCoordinator), wired by hand over an explicit control
// connection: Deploy does this for a placed plan. Call after the full plan —
// including remote sinks — is assembled, then RestoreCommitted, AddFollower
// per control connection (none for a single-process plan), and
// RunCheckpointed or CheckpointOnce. log may share chain's backend.
func (b *Builder) DistCoordinate(part string, chain *snapshot.Chain, log *snapshot.DistLog) (*exec.DistCoordinator, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	return exec.NewDistCoordinator(b.g, part, chain, log), nil
}

// DistFollow wraps the built plan as a follower subplan (see
// exec.DistFollower) — the barriers its remote sources read register with
// it — wired by hand like DistCoordinate: call after the full plan is
// assembled, then Handshake and Run.
func (b *Builder) DistFollow(part string, chain *snapshot.Chain, ctrl net.Conn) (*exec.DistFollower, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	return exec.NewDistFollower(b.g, part, chain, ctrl), nil
}
