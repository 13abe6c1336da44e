// Package plan provides two higher-level ways to assemble query plans over
// the exec runtime: a fluent Builder for Go code, and a small SQL-like
// query language (query.go) that covers the paper's §3.3 syntax, including
// the WITH PACE clause:
//
//	SELECT * FROM stream1 UNION stream2
//	WITH PACE ON ts 1 MINUTE
package plan

import (
	"fmt"
	"net"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fuse"
	"repro/internal/op"
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
// input wiring; fused nodes additionally render their kernel step table, so
// fusion decisions are inspectable (cmd/paceql -explain).
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
		fmt.Fprintf(&sb, "%2d: %s <- %s\n", id, o.Name(), strings.Join(froms, ", "))
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

// Select appends a filter stage.
func (s Stream) Select(name string, cond func(stream.Tuple) bool) Stream {
	if s.bad {
		return s
	}
	o := &op.Select{OpName: name, Schema: s.schema, Cond: cond, Mode: s.b.Mode, Propagate: s.b.Propagate}
	id := s.b.g.Add(o, s.port)
	return Stream{b: s.b, port: exec.From(id), schema: s.schema}
}

// SelectExpr appends a filter evaluated by a compiled flat expression
// (op.Expr) instead of a closure — the form PaceQL WHERE clauses compile to
// and the one fused kernels inline. Steps are resolved against the stream
// schema at wiring time; a bad column surfaces via Builder.Err().
func (s Stream) SelectExpr(name string, steps ...op.ExprStep) Stream {
	if s.bad {
		return s
	}
	e, err := op.NewExpr(s.schema.Arity(), steps...)
	if err != nil {
		return s.b.fail("plan: select %q: %v", name, err)
	}
	o := &op.Select{OpName: name, Schema: s.schema, Expr: e, Mode: s.b.Mode, Propagate: s.b.Propagate}
	id := s.b.g.Add(o, s.port)
	return Stream{b: s.b, port: exec.From(id), schema: s.schema}
}

// Project appends an attribute projection. The Keep list is validated here,
// at wiring time (op.Project.Init), so a bad projection surfaces through
// Builder.Err() instead of panicking at the first OutSchemas call.
func (s Stream) Project(name string, keep ...string) Stream {
	if s.bad {
		return s
	}
	o := &op.Project{OpName: name, In: s.schema, Keep: keep, Mode: s.b.Mode, Propagate: s.b.Propagate}
	if err := o.Init(); err != nil {
		return s.b.fail("plan: %v", err)
	}
	id := s.b.g.Add(o, s.port)
	return Stream{b: s.b, port: exec.From(id), schema: o.OutSchemas()[0]}
}

// Map appends a stateless attribute transform (carried and computed output
// attributes; see op.Map). The attribute list is validated at wiring time,
// surfacing misconfiguration through Builder.Err().
func (s Stream) Map(name string, outs ...op.MapAttr) Stream {
	if s.bad {
		return s
	}
	o := &op.Map{OpName: name, In: s.schema, Outs: outs, Mode: s.b.Mode, Propagate: s.b.Propagate}
	if err := o.Init(); err != nil {
		return s.b.fail("plan: %v", err)
	}
	id := s.b.g.Add(o, s.port)
	return Stream{b: s.b, port: exec.From(id), schema: o.OutSchemas()[0]}
}

// Duplicate fans the stream out n ways.
func (s Stream) Duplicate(name string, n int) []Stream {
	if s.bad {
		return []Stream{s, s}
	}
	o := &op.Duplicate{OpName: name, Schema: s.schema, N: n, Mode: s.b.Mode, Propagate: s.b.Propagate}
	id := s.b.g.Add(o, s.port)
	out := make([]Stream, n)
	for i := range out {
		out[i] = Stream{b: s.b, port: exec.FromPort(id, i), schema: s.schema}
	}
	return out
}

// Union merges this stream with others of the same schema; punctuation is
// forwarded once every input has asserted it (op.Merge).
func (s Stream) Union(name string, others ...Stream) Stream {
	if s.bad {
		return s
	}
	ports := []exec.Port{s.port}
	for _, o := range others {
		if !o.schema.Equal(s.schema) {
			return s.b.fail("plan: union %q: schema mismatch %s vs %s", name, o.schema, s.schema)
		}
		ports = append(ports, o.port)
	}
	u := &op.Merge{OpName: name, Schema: s.schema, K: len(ports), Mode: s.b.Mode, Propagate: s.b.Propagate}
	id := s.b.g.Add(u, ports...)
	return Stream{b: s.b, port: exec.From(id), schema: s.schema}
}

// Pace merges this stream with others under a divergence bound on the
// named timestamp attribute, producing assumed feedback when dropping.
func (s Stream) Pace(name string, tsAttr string, toleranceMicros int64, others ...Stream) Stream {
	if s.bad {
		return s
	}
	idx := s.schema.Index(tsAttr)
	if idx < 0 {
		return s.b.fail("plan: pace %q: no attribute %q", name, tsAttr)
	}
	ports := []exec.Port{s.port}
	for _, o := range others {
		if !o.schema.Equal(s.schema) {
			return s.b.fail("plan: pace %q: schema mismatch", name)
		}
		ports = append(ports, o.port)
	}
	p := &op.Pace{
		OpName: name, Schema: s.schema, K: len(ports), TsAttr: idx,
		Tolerance: toleranceMicros, FeedbackEnabled: s.b.Mode != op.FeedbackIgnore,
	}
	id := s.b.g.Add(p, ports...)
	return Stream{b: s.b, port: exec.From(id), schema: s.schema}
}

// Aggregate appends a windowed grouped aggregate.
func (s Stream) Aggregate(name string, kind core.AggKind, tsAttr, valAttr string, groupBy []string, win window.Spec, valueName string) Stream {
	if s.bad {
		return s
	}
	tsIdx := s.schema.Index(tsAttr)
	if tsIdx < 0 {
		return s.b.fail("plan: aggregate %q: no attribute %q", name, tsAttr)
	}
	valIdx := -1
	if valAttr != "" {
		if valIdx = s.schema.Index(valAttr); valIdx < 0 {
			return s.b.fail("plan: aggregate %q: no attribute %q", name, valAttr)
		}
	}
	var groups []int
	for _, gname := range groupBy {
		gi := s.schema.Index(gname)
		if gi < 0 {
			return s.b.fail("plan: aggregate %q: no attribute %q", name, gname)
		}
		groups = append(groups, gi)
	}
	a := &op.Aggregate{
		OpName: name, In: s.schema, Kind: kind,
		TsAttr: tsIdx, ValAttr: valIdx, GroupBy: groups,
		Window: win, ValueName: valueName,
		Mode: s.b.Mode, Propagate: s.b.Propagate,
	}
	id := s.b.g.Add(a, s.port)
	return Stream{b: s.b, port: exec.From(id), schema: a.OutSchemas()[0]}
}

// Join equi-joins this stream (left) with another on named attribute
// pairs; ts attributes drive state purge.
func (s Stream) Join(name string, right Stream, leftKeys, rightKeys []string, leftTs, rightTs string, leftOuter bool) Stream {
	if s.bad {
		return s
	}
	toIdx := func(sch stream.Schema, names []string) ([]int, error) {
		var out []int
		for _, n := range names {
			i := sch.Index(n)
			if i < 0 {
				return nil, fmt.Errorf("no attribute %q in %s", n, sch)
			}
			out = append(out, i)
		}
		return out, nil
	}
	lk, err := toIdx(s.schema, leftKeys)
	if err != nil {
		return s.b.fail("plan: join %q: %v", name, err)
	}
	rk, err := toIdx(right.schema, rightKeys)
	if err != nil {
		return s.b.fail("plan: join %q: %v", name, err)
	}
	lt, rt := -1, -1
	if leftTs != "" {
		if lt = s.schema.Index(leftTs); lt < 0 {
			return s.b.fail("plan: join %q: no attribute %q", name, leftTs)
		}
	}
	if rightTs != "" {
		if rt = right.schema.Index(rightTs); rt < 0 {
			return s.b.fail("plan: join %q: no attribute %q", name, rightTs)
		}
	}
	j := &op.Join{
		OpName: name, Left: s.schema, Right: right.schema,
		LeftKeys: lk, RightKeys: rk, LeftTs: lt, RightTs: rt,
		LeftOuter: leftOuter, Mode: s.b.Mode, Propagate: s.b.Propagate,
	}
	id := s.b.g.Add(j, s.port, right.port)
	return Stream{b: s.b, port: exec.From(id), schema: j.OutSchemas()[0]}
}

// Through appends a caller-constructed single-input single-output operator
// — the escape hatch for operator knobs the fluent methods do not expose
// (e.g. op.Aggregate.Cost in benchmarks). The operator's input schema must
// match the stream.
func (s Stream) Through(o exec.Operator) Stream {
	if s.bad {
		return s
	}
	// Operators with eager validation (op.Project, op.Map) report
	// misconfiguration here instead of panicking inside OutSchemas below.
	if init, ok := o.(interface{ Init() error }); ok {
		if err := init.Init(); err != nil {
			return s.b.fail("plan: %v", err)
		}
	}
	if len(o.InSchemas()) != 1 || len(o.OutSchemas()) != 1 {
		return s.b.fail("plan: through %q: need exactly one input and one output", o.Name())
	}
	if !o.InSchemas()[0].Equal(s.schema) {
		return s.b.fail("plan: through %q: input schema %s does not match stream schema %s",
			o.Name(), o.InSchemas()[0], s.schema)
	}
	id := s.b.g.Add(o, s.port)
	return Stream{b: s.b, port: exec.From(id), schema: o.OutSchemas()[0]}
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
	keyIdx := make([]int, 0, len(key))
	for _, k := range key {
		i := s.schema.Index(k)
		if i < 0 {
			return s.b.fail("plan: parallel %q: no attribute %q in %s", name, k, s.schema)
		}
		keyIdx = append(keyIdx, i)
	}
	sp := &op.Split{OpName: name + ".split", Schema: s.schema, N: n, Key: keyIdx, Mode: s.b.Mode, Propagate: s.b.Propagate}
	sid := s.b.g.Add(sp, s.port)
	branches := make([]Stream, n)
	for i := range branches {
		in := Stream{b: s.b, port: exec.FromPort(sid, i), schema: s.schema}
		s.b.g.LabelEdge(in.port, fmt.Sprintf("part=%d/%d", i, n))
		out := sub(in)
		if out.bad {
			return out
		}
		if out.b != s.b {
			return s.b.fail("plan: parallel %q: sub-plan returned a stream from another builder", name)
		}
		if i > 0 && !out.schema.Equal(branches[0].schema) {
			return s.b.fail("plan: parallel %q: replica %d schema %s differs from replica 0 schema %s",
				name, i, out.schema, branches[0].schema)
		}
		branches[i] = out
		s.b.g.LabelEdge(out.port, fmt.Sprintf("part=%d/%d", i, n))
	}
	mg := &op.Merge{OpName: name + ".merge", Schema: branches[0].schema, K: n, Mode: s.b.Mode, Propagate: s.b.Propagate}
	ports := make([]exec.Port, n)
	for i, br := range branches {
		ports[i] = br.port
	}
	mid := s.b.g.Add(mg, ports...)
	return Stream{b: s.b, port: exec.From(mid), schema: branches[0].schema}
}

// Prioritize appends a desired-feedback-aware reorder buffer.
func (s Stream) Prioritize(name string, bufferCap int) Stream {
	if s.bad {
		return s
	}
	p := &op.Prioritize{OpName: name, Schema: s.schema, BufferCap: bufferCap, Mode: s.b.Mode, Propagate: s.b.Propagate}
	id := s.b.g.Add(p, s.port)
	return Stream{b: s.b, port: exec.From(id), schema: s.schema}
}

// Collect terminates the stream in a recording sink and returns it.
func (s Stream) Collect(name string) *exec.Collector {
	c := exec.NewCollector(name, s.schema)
	if !s.bad {
		s.b.g.Add(c, s.port)
	}
	return c
}

// Into terminates the stream in a caller-provided sink operator.
func (s Stream) Into(sink exec.Operator) {
	if !s.bad {
		s.b.g.Add(sink, s.port)
	}
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
