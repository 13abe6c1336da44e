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
	g    *exec.Graph
	errs []error
	// Feedback defaults applied to operators the builder creates.
	Mode      op.FeedbackMode
	Propagate bool
}

// New creates an empty builder with feedback exploitation enabled (the
// library's reason to exist); set Mode to op.FeedbackIgnore for baselines.
func New() *Builder {
	return &Builder{g: exec.NewGraph(), Mode: op.FeedbackExploit, Propagate: true}
}

// Graph exposes the underlying graph (e.g. to set queue options).
func (b *Builder) Graph() *exec.Graph { return b.g }

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
// adjacent stateless operators into single flat-kernel nodes. Call it after
// the plan is fully assembled (sinks included) and before DistCoordinate or
// Run: a checkpoint names every node, so a compiled plan only restores checkpoints
// taken from an identically compiled plan. Compile is chainable and a no-op
// on a plan that already has errors.
func (b *Builder) Compile() *Builder {
	if len(b.errs) > 0 {
		return b
	}
	if _, err := fuse.Rewrite(b.g); err != nil {
		b.errs = append(b.errs, err)
	}
	return b
}

// EnableTelemetry attaches a telemetry sink to the underlying graph and
// publishes this plan as the sink's /statusz payload — the Explain
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
// (exec.Graph.Chained) — and fused nodes additionally render their kernel step
// table, so fusion decisions are inspectable (cmd/paceql -explain).
func (b *Builder) Explain() string {
	var sb strings.Builder
	for id := 0; id < b.g.NumNodes(); id++ {
		nid := exec.NodeID(id)
		if b.g.IsSource(nid) {
			fmt.Fprintf(&sb, "%2d: source %s\n", id, b.g.NameAt(nid))
			continue
		}
		ins := b.g.InputsOf(nid)
		froms := make([]string, len(ins))
		for i, p := range ins {
			froms[i] = fmt.Sprintf("%s[%d]", b.g.NameAt(p.Node), p.Out)
		}
		o := b.g.OperatorAt(nid)
		chained := ""
		if b.g.Chained(nid) {
			chained = " (chained)"
		}
		fmt.Fprintf(&sb, "%2d: %s <- %s%s\n", id, o.Name(), strings.Join(froms, ", "), chained)
		if ex, ok := o.(interface{ Explain() string }); ok {
			fmt.Fprintf(&sb, "      kernel: %s\n", ex.Explain())
		}
	}
	return sb.String()
}

// Run validates and executes the plan.
func (b *Builder) Run() error {
	if err := b.Err(); err != nil {
		return err
	}
	return b.g.Run()
}

// Stream is a named handle on one operator output port.
type Stream struct {
	b      *Builder
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
	return Stream{b: b, port: exec.From(id), schema: src.OutSchemas()[0]}
}

// node is the one place a Stream method adds a node to the plan. The node's
// inputs are ins, in order, and mk builds its operator from their schemas.
// Nothing is added when a stream carries an earlier error (that error stands
// for this node too); the plan fails here when mk does, when a stream belongs
// to another builder, or when the operator does not take these streams'
// schemas or has other than outputs outputs. It returns the node's first
// output (a bad stream when nothing was added).
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
	// Operators with eager validation (op.Project, op.Map) report
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
		if want := o.InSchemas()[i]; !want.Equal(in.schema) {
			return b.fail("plan: %q: input %d schema %s does not match stream schema %s", o.Name(), i, want, in.schema)
		}
		ports[i] = in.port
	}
	out := Stream{b: b, port: exec.From(b.g.Add(o, ports...))}
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

// Project appends an attribute projection. The Keep list is validated here,
// at wiring time (op.Project.Init), so a bad projection surfaces through
// Builder.Err() instead of panicking at the first OutSchemas call.
func (s Stream) Project(name string, keep ...string) Stream {
	return s.Through(&op.Project{OpName: name, In: s.schema, Keep: keep, Mode: s.b.Mode, Propagate: s.b.Propagate})
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
	first := s.b.node(n, func() (exec.Operator, error) {
		return &op.Duplicate{OpName: name, Schema: s.schema, N: n, Mode: s.b.Mode, Propagate: s.b.Propagate}, nil
	}, s)
	out := make([]Stream, n)
	for i := range out {
		out[i] = Stream{b: s.b, port: exec.FromPort(first.port.Node, i), schema: s.schema, bad: first.bad}
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

// Join equi-joins this stream (left) with another on named attribute
// pairs; ts attributes (either may be empty) drive state purge.
func (s Stream) Join(name string, right Stream, leftKeys, rightKeys []string, leftTs, rightTs string, leftOuter bool) Stream {
	return s.b.node(1, func() (exec.Operator, error) {
		lk, err1 := attrs(s.schema, leftKeys...)
		rk, err2 := attrs(right.schema, rightKeys...)
		lt, err3 := optAttr(s.schema, leftTs)
		rt, err4 := optAttr(right.schema, rightTs)
		if err := cmp.Or(err1, err2, err3, err4); err != nil {
			return nil, fmt.Errorf("join %q: %v", name, err)
		}
		return &op.Join{
			OpName: name, Left: s.schema, Right: right.schema,
			LeftKeys: lk, RightKeys: rk, LeftTs: lt, RightTs: rt,
			LeftOuter: leftOuter, Mode: s.b.Mode, Propagate: s.b.Propagate,
		}, nil
	}, s, right)
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
	keyIdx, err := attrs(s.schema, key...)
	if err != nil {
		return s.b.fail("plan: parallel %q: %v", name, err)
	}
	split := s.b.node(n, func() (exec.Operator, error) {
		return &op.Split{OpName: name + ".split", Schema: s.schema, N: n, Key: keyIdx, Mode: s.b.Mode, Propagate: s.b.Propagate}, nil
	}, s)
	branches := make([]Stream, n)
	for i := range branches {
		label := fmt.Sprintf("part=%d/%d", i, n)
		in := Stream{b: s.b, port: exec.FromPort(split.port.Node, i), schema: s.schema}
		s.b.g.LabelEdge(in.port, label)
		branches[i] = sub(in)
		if branches[i].b == s.b && !branches[i].bad {
			s.b.g.LabelEdge(branches[i].port, label)
		}
	}
	// Every replica must hand back a stream of this plan with replica 0's
	// schema: the merge's inputs say so.
	return s.b.node(1, func() (exec.Operator, error) {
		return &op.Merge{OpName: name + ".merge", Schema: branches[0].schema, K: n, Mode: s.b.Mode, Propagate: s.b.Propagate}, nil
	}, branches...)
}

// Prioritize appends a desired-feedback-aware reorder buffer.
func (s Stream) Prioritize(name string, bufferCap int) Stream {
	return s.Through(&op.Prioritize{OpName: name, Schema: s.schema, BufferCap: bufferCap, Mode: s.b.Mode, Propagate: s.b.Propagate})
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
// Remote edges and distributed checkpoint coordination.
// ---------------------------------------------------------------------------

// RemoteSource registers a source replaying a remote subplan's stream from
// conn; with a DistFollower attached, checkpoint barriers arriving on the
// connection cut this subplan at the producer's epoch.
func (b *Builder) RemoteSource(name string, schema stream.Schema, conn net.Conn) Stream {
	return b.Source(remote.NewSource(name, schema, conn))
}

// IntoRemote terminates the stream in a remote sink framing it onto conn
// and returns the sink (for WriteTimeout / FlushEvery tuning). Under
// distributed checkpoints the sink forwards barriers in-band, so the
// consuming subplan cuts the same epoch.
func (s Stream) IntoRemote(name string, conn net.Conn) *remote.Sink {
	sink := remote.NewSink(name, s.schema, conn)
	s.Into(sink)
	return sink
}

// DistCoordinate wraps the built plan as the coordinator of its checkpoints
// (see exec.DistCoordinator) — the way a plan is cut and restored, whether
// it spans processes or not: call after the full plan — including remote
// sinks — is assembled, then RestoreCommitted, AddFollower per control
// connection (none for a single-process plan), and RunCheckpointed. log may
// share chain's backend.
func (b *Builder) DistCoordinate(part string, chain *snapshot.Chain, log *snapshot.DistLog) (*exec.DistCoordinator, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	return exec.NewDistCoordinator(b.g, part, chain, log), nil
}

// DistFollow wraps the built plan as a follower subplan (see
// exec.DistFollower), installing barrier hooks on its remote sources: call
// after the full plan is assembled, then Handshake and Run.
func (b *Builder) DistFollow(part string, chain *snapshot.Chain, ctrl net.Conn) (*exec.DistFollower, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	return exec.NewDistFollower(b.g, part, chain, ctrl), nil
}
