package fuse

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/stream"
	"repro/internal/window"
)

var chainSchema = stream.MustSchema(
	stream.F("a", stream.KindInt),
	stream.F("b", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("v", stream.KindFloat),
)

// ---------------------------------------------------------------------------
// Randomized twin property test: a fused kernel must be
// observationally identical to the unfused operator chain — emitted items,
// upstream feedback, per-step counters, and feedback-response traces — across
// random chains and random scripts of tuples, punctuation, and feedback in
// every mode.
// ---------------------------------------------------------------------------

// stepSpec describes one chain constituent; build constructs a fresh
// operator instance so the fused and unfused twins never share state.
type stepSpec struct {
	build func() exec.Operator
	out   stream.Schema
}

func randMode(rng *rand.Rand) op.FeedbackMode {
	return []op.FeedbackMode{op.FeedbackIgnore, op.FeedbackGuardOutput, op.FeedbackExploit}[rng.Intn(3)]
}

// randPred builds a predicate for a column of the given kind.
func randPred(rng *rand.Rand, kind stream.Kind) punct.Pred {
	switch kind {
	case stream.KindInt:
		v := stream.Int(int64(rng.Intn(5)))
		switch rng.Intn(4) {
		case 0:
			return punct.Eq(v)
		case 1:
			return punct.Ne(v)
		case 2:
			return punct.Le(v)
		default:
			return punct.Ge(v)
		}
	case stream.KindTime:
		return punct.Le(stream.TimeMicros(int64(rng.Intn(40)) * 1000))
	case stream.KindFloat:
		if rng.Intn(4) == 0 {
			return punct.Pred{Op: punct.IsNull}
		}
		return punct.Ge(stream.Float(float64(rng.Intn(60))))
	default:
		return punct.Eq(stream.Int(0))
	}
}

// randChain generates 2–5 stateless steps over evolving schemas.
func randChain(rng *rand.Rand) []stepSpec {
	cur := chainSchema
	n := 2 + rng.Intn(4)
	specs := make([]stepSpec, 0, n)
	for i := 0; i < n; i++ {
		mode, propagate := randMode(rng), rng.Intn(3) > 0
		name := fmt.Sprintf("s%d", i)
		in := cur
		switch rng.Intn(3) {
		case 0: // select
			var steps []punct.ExprStep
			for c := 0; c < in.Arity(); c++ {
				if rng.Intn(3) == 0 {
					steps = append(steps, punct.ExprStep{Col: c, Name: in.Field(c).Name, Pred: randPred(rng, in.Field(c).Kind)})
				}
			}
			expr, err := punct.NewExpr(in.Arity(), steps...)
			if err != nil {
				panic(err)
			}
			cost := rng.Intn(3)
			specs = append(specs, stepSpec{out: in, build: func() exec.Operator {
				return &op.Select{OpName: name, Schema: in, Expr: expr, Cost: cost, Mode: mode, Propagate: propagate}
			}})
		case 1: // project: random non-empty keep subset, in order
			var keep []string
			for c := 0; c < in.Arity(); c++ {
				if rng.Intn(2) == 0 {
					keep = append(keep, in.Field(c).Name)
				}
			}
			if len(keep) == 0 {
				keep = []string{in.Field(rng.Intn(in.Arity())).Name}
			}
			kept := keep
			p := &op.Project{OpName: name, In: in, Keep: kept}
			if err := p.Init(); err != nil {
				panic(err)
			}
			out := p.OutSchemas()[0]
			specs = append(specs, stepSpec{out: out, build: func() exec.Operator {
				return &op.Project{OpName: name, In: in, Keep: kept, Mode: mode, Propagate: propagate}
			}})
			cur = out
		default: // map: carries (some renamed) plus sometimes a computed attr
			var outs []op.MapAttr
			for c := 0; c < in.Arity(); c++ {
				switch rng.Intn(3) {
				case 0: // dropped
				case 1:
					outs = append(outs, op.Carry(in.Field(c).Name))
				default:
					outs = append(outs, op.MapAttr{Name: "r_" + in.Field(c).Name, From: in.Field(c).Name})
				}
			}
			if rng.Intn(2) == 0 {
				outs = append(outs, op.Compute(fmt.Sprintf("x%d", i), stream.KindInt,
					func(t stream.Tuple) stream.Value { return stream.Int(int64(t.Arity())) }))
			}
			if len(outs) == 0 {
				outs = append(outs, op.Carry(in.Field(0).Name))
			}
			outsCopy := outs
			m := &op.Map{OpName: name, In: in, Outs: outsCopy}
			if err := m.Init(); err != nil {
				panic(err)
			}
			out := m.OutSchemas()[0]
			specs = append(specs, stepSpec{out: out, build: func() exec.Operator {
				return &op.Map{OpName: name, In: in, Outs: outsCopy, Mode: mode, Propagate: propagate}
			}})
			cur = out
		}
		cur = specs[len(specs)-1].out
	}
	return specs
}

func randTuple(rng *rand.Rand, i int) stream.Tuple {
	v := stream.Float(20 + float64(rng.Intn(60)))
	if rng.Intn(8) == 0 {
		v = stream.Null
	}
	return stream.NewTuple(
		stream.Int(int64(rng.Intn(5))), stream.Int(int64(rng.Intn(5))),
		stream.TimeMicros(int64(i)*1000), v)
}

func randPattern(rng *rand.Rand, sch stream.Schema) punct.Pattern {
	c := rng.Intn(sch.Arity())
	return punct.OnAttr(sch.Arity(), c, randPred(rng, sch.Field(c).Kind))
}

// opStats is a constituent operator's accounting, read through its own
// Stats, Counters and CostBurned: in, out, suppressed, punctuations
// dropped, cost.
func opStats(o exec.Operator) (st [5]int64) {
	switch o := o.(type) {
	case *op.Select:
		st[0], st[1], st[2] = o.Stats()
		st[4] = o.CostBurned()
	case interface{ Counters() *op.Counters }: // Map, and Project through it
		c := o.Counters()
		st[0], st[1], st[2], st[3] = c.In.Load(), c.Out.Load(), c.Suppressed.Load(), c.PunctDropped.Load()
	}
	return st
}

func TestFusedEqualsUnfusedProperty(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := randChain(rng)
		outSchema := specs[len(specs)-1].out

		unfusedOps := make([]exec.Operator, len(specs))
		fusedOps := make([]exec.Operator, len(specs))
		for i, s := range specs {
			unfusedOps[i], fusedOps[i] = s.build(), s.build()
		}
		fused, err := New(fusedOps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		events := 20 + rng.Intn(30)
		var script []exec.Script
		var seq int64
		for i := 0; i < events; i++ {
			switch r := rng.Intn(10); {
			case r < 6:
				script = append(script, exec.Tuples(0, randTuple(rng, i)))
			case r < 8:
				script = append(script, exec.Punct(0, punct.NewEmbedded(randPattern(rng, chainSchema))))
			default:
				seq++
				script = append(script, exec.Feedback(0, core.Feedback{
					Intent:  []core.Intent{core.Assumed, core.Desired, core.Demanded}[rng.Intn(3)],
					Pattern: randPattern(rng, outSchema),
					Origin:  "downstream", Seq: seq,
				}))
			}
		}
		unfused := exec.DriveChain(unfusedOps, script...)
		if unfused.Err != nil {
			t.Fatalf("seed %d: unfused chain: %v", seed, unfused.Err)
		}
		fh := exec.Drive(fused, script...)
		if fh.Err != nil {
			t.Fatalf("seed %d: fused kernel: %v", seed, fh.Err)
		}

		if got, want := fh.Out[0].Items(), unfused.Out[0].Items(); !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: emitted items diverge\nunfused: %v\nfused:   %v", seed, want, got)
		}
		if !reflect.DeepEqual(unfused.Sent[0], fh.Sent[0]) {
			t.Fatalf("seed %d: upstream feedback diverges\nunfused: %v\nfused:   %v",
				seed, unfused.Sent[0], fh.Sent[0])
		}
		// Each step counted into its constituent: the fused chain's operators
		// read exactly what the unfused chain's do.
		for i, o := range unfusedOps {
			if got, want := opStats(fusedOps[i]), opStats(o); got != want {
				t.Fatalf("seed %d step %d (%s): fused (in out sup dropped cost) %v, unfused %v",
					seed, i, o.Name(), got, want)
			}
			var responses []core.Response
			switch o := o.(type) {
			case *op.Select:
				responses = o.Trace()
			case *op.Project:
				responses = o.Trace()
			case *op.Map:
				responses = o.Trace()
			}
			if !reflect.DeepEqual(responses, fused.StepTrace(i)) {
				t.Fatalf("seed %d step %d (%s): response traces diverge\nunfused: %+v\nfused:   %+v",
					seed, i, o.Name(), responses, fused.StepTrace(i))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fusion-boundary tests: the pass must stop at stateful operators, fan
// in/out, and remote edges, and must leave length-1 chains alone.
// ---------------------------------------------------------------------------

func nodeNames(g *exec.Graph) []string {
	names := make([]string, g.NumNodes())
	for i := range names {
		names[i] = g.NameAt(exec.NodeID(i))
	}
	return names
}

func TestRewriteFusesAroundStatefulOperator(t *testing.T) {
	g := exec.NewGraph()
	src := g.AddSource(exec.NewSliceSource("src", chainSchema))
	sel1 := g.Add(&op.Select{OpName: "sel1", Schema: chainSchema}, exec.From(src))
	proj := &op.Project{OpName: "proj", In: chainSchema, Keep: []string{"a", "ts", "v"}}
	pid := g.Add(proj, exec.From(sel1))
	agg := &op.Aggregate{OpName: "agg", In: proj.OutSchemas()[0], Kind: core.AggAvg,
		TsAttr: 1, ValAttr: 2, GroupBy: []int{0}, Window: window.Tumbling(1_000_000), ValueName: "avg_v"}
	aid := g.Add(agg, exec.From(pid))
	aggOut := agg.OutSchemas()[0]
	sel2 := g.Add(&op.Select{OpName: "sel2", Schema: aggOut}, exec.From(aid))
	carries := make([]op.MapAttr, aggOut.Arity())
	for i := 0; i < aggOut.Arity(); i++ {
		carries[i] = op.Carry(aggOut.Field(i).Name)
	}
	mid := g.Add(&op.Map{OpName: "map2", In: aggOut, Outs: carries}, exec.From(sel2))
	g.Add(exec.NewCollector("sink", aggOut), exec.From(mid))

	fusions, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	// The upstream chain becomes the aggregate's prefix kernel, built from
	// the chain directly. The downstream chain feeds a sink (not an absorb
	// target) and becomes a standalone kernel.
	if len(fusions) != 2 {
		t.Fatalf("fusions = %+v, want 2", fusions)
	}
	if c := fusions[0].Consumer; c != "agg" {
		t.Fatalf("prefix fusion consumer = %q, want \"agg\"", c)
	}
	if !reflect.DeepEqual(fusions[0].Steps, []string{"sel1", "proj"}) {
		t.Fatalf("prefix fusion steps = %v", fusions[0].Steps)
	}
	want := []string{"src", "fused(sel1+proj=>agg)", "fused(sel2+map2)", "sink"}
	if got := nodeNames(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("nodes after rewrite = %v, want %v", got, want)
	}
	// The aggregate's node keeps its stateful identity: the prefixed node
	// still captures and restores exactly the aggregate's state.
	pf, ok := g.OperatorAt(exec.NodeID(1)).(*Prefixed)
	if !ok {
		t.Fatalf("node 1 is %T, want *Prefixed", g.OperatorAt(exec.NodeID(1)))
	}
	if pf.Inner() != agg {
		t.Fatalf("prefixed inner = %v, want the original aggregate", pf.Inner())
	}
	// The compiled plan must still be runnable end to end.
	if err := g.Run(); err != nil {
		t.Fatalf("compiled plan run: %v", err)
	}
}

// TestRewriteAbsorbsLoneStepIntoStateful pins that a single stateless
// operator (too short for a standalone kernel) is still absorbed into its
// stateful consumer, as a one-step prefix kernel.
func TestRewriteAbsorbsLoneStepIntoStateful(t *testing.T) {
	g := exec.NewGraph()
	src := g.AddSource(exec.NewSliceSource("src", chainSchema))
	sel := g.Add(&op.Select{OpName: "sel", Schema: chainSchema}, exec.From(src))
	agg := &op.Aggregate{OpName: "agg", In: chainSchema, Kind: core.AggCount,
		TsAttr: 2, ValAttr: -1, GroupBy: []int{0}, Window: window.Tumbling(1_000_000), ValueName: "n"}
	aid := g.Add(agg, exec.From(sel))
	g.Add(exec.NewCollector("sink", agg.OutSchemas()[0]), exec.From(aid))

	fusions, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(fusions) != 1 || fusions[0].Consumer != "agg" || len(fusions[0].Steps) != 1 {
		t.Fatalf("fusions = %+v, want one single-step absorb into agg", fusions)
	}
	want := []string{"src", "fused(sel=>agg)", "sink"}
	if got := nodeNames(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("nodes after rewrite = %v, want %v", got, want)
	}
}

func TestRewriteStopsAtFanOut(t *testing.T) {
	g := exec.NewGraph()
	src := g.AddSource(exec.NewSliceSource("src", chainSchema))
	sel := g.Add(&op.Select{OpName: "sel", Schema: chainSchema}, exec.From(src))
	dup := g.Add(&op.Duplicate{OpName: "dup", Schema: chainSchema, N: 2}, exec.From(sel))
	p1 := &op.Project{OpName: "p1", In: chainSchema, Keep: []string{"a"}}
	p2 := &op.Project{OpName: "p2", In: chainSchema, Keep: []string{"b"}}
	i1 := g.Add(p1, exec.FromPort(dup, 0))
	i2 := g.Add(p2, exec.FromPort(dup, 1))
	g.Add(exec.NewCollector("k1", p1.OutSchemas()[0]), exec.From(i1))
	g.Add(exec.NewCollector("k2", p2.OutSchemas()[0]), exec.From(i2))

	before := g.NumNodes()
	fusions, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(fusions) != 0 || g.NumNodes() != before {
		t.Fatalf("fan-out plan was rewritten: fusions=%+v nodes=%v", fusions, nodeNames(g))
	}
}

func TestRewriteStopsAtRemoteEdge(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	g := exec.NewGraph()
	src := g.AddSource(exec.NewSliceSource("src", chainSchema))
	sel := g.Add(&op.Select{OpName: "sel", Schema: chainSchema}, exec.From(src))
	carries := make([]op.MapAttr, chainSchema.Arity())
	for i := 0; i < chainSchema.Arity(); i++ {
		carries[i] = op.Carry(chainSchema.Field(i).Name)
	}
	mid := g.Add(&op.Map{OpName: "norm", In: chainSchema, Outs: carries}, exec.From(sel))
	g.Add(remote.NewSink("rsink", chainSchema, c1), exec.From(mid))

	fusions, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"src", "fused(sel+norm)", "rsink"}
	if got := nodeNames(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("nodes after rewrite = %v, want %v (fusions=%+v)", got, want, fusions)
	}
}

func TestRewriteLeavesSingletonsAlone(t *testing.T) {
	g := exec.NewGraph()
	src := g.AddSource(exec.NewSliceSource("src", chainSchema))
	sel := g.Add(&op.Select{OpName: "sel", Schema: chainSchema}, exec.From(src))
	g.Add(exec.NewCollector("sink", chainSchema), exec.From(sel))
	fusions, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(fusions) != 0 {
		t.Fatalf("singleton chain fused: %+v", fusions)
	}
}

// wiring renders node names and input ports: everything a rewrite changes.
func wiring(g *exec.Graph) string {
	var sb strings.Builder
	for id := 0; id < g.NumNodes(); id++ {
		fmt.Fprintf(&sb, "%d:%s %v\n", id, g.NameAt(exec.NodeID(id)), g.InputsOf(exec.NodeID(id)))
	}
	return sb.String()
}

// TestRewriteIsIdempotentAndMaximal compiles random plans — two to four
// branches, each a prefix of a random stateless chain in front of a sink, a
// Duplicate or an exchange Split, their nodes added round-robin so every
// rewrite renumbers nodes of the branches still to be scanned — and checks the
// one scan left nothing behind: a second Rewrite finds no fusion and changes
// nothing, no fusible operator still feeds a fusible operator or an absorb
// target, each branch was compiled exactly when it could be, and the
// compiled plan runs.
func TestRewriteIsIdempotentAndMaximal(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := exec.NewGraph()
		type branch struct {
			name  string
			specs []stepSpec
			at    exec.NodeID // the branch's newest node
			tail  int         // 0 sink, 1 Duplicate, 2 Split
		}
		branches := make([]*branch, 2+rng.Intn(3))
		wantFusions, wantNodes := 0, 0
		for i := range branches {
			specs := randChain(rng)
			b := &branch{name: fmt.Sprintf("b%d", i), specs: specs[:1+rng.Intn(len(specs))], tail: rng.Intn(3)}
			b.at = g.AddSource(exec.NewSliceSource(b.name+".src", chainSchema))
			branches[i] = b
			// src, kernel or lone operator, sink; the same with a dup and a
			// second sink; src, prefixed split, two sinks.
			wantNodes += []int{3, 5, 4}[b.tail]
			if b.tail == 2 || len(b.specs) >= 2 {
				wantFusions++
			}
		}
		for step := 0; ; step++ {
			added := false
			for _, b := range branches {
				if step < len(b.specs) {
					b.at = g.Add(b.specs[step].build(), exec.From(b.at))
					added = true
				}
			}
			if !added {
				break
			}
		}
		for _, b := range branches {
			out := b.specs[len(b.specs)-1].out
			switch b.tail {
			case 0:
				g.Add(exec.NewCollector(b.name+".sink", out), exec.From(b.at))
				continue
			case 1:
				b.at = g.Add(&op.Duplicate{OpName: b.name + ".dup", Schema: out, N: 2}, exec.From(b.at))
			case 2:
				b.at = g.Add(&op.Split{OpName: b.name + ".split", Schema: out, N: 2}, exec.From(b.at))
			}
			g.Add(exec.NewCollector(b.name+".k0", out), exec.FromPort(b.at, 0))
			g.Add(exec.NewCollector(b.name+".k1", out), exec.FromPort(b.at, 1))
		}

		uncompiled := wiring(g)
		fusions, err := Rewrite(g)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, uncompiled)
		}
		compiled := wiring(g)
		if len(fusions) != wantFusions || g.NumNodes() != wantNodes {
			t.Fatalf("seed %d: %d fusions and %d nodes, want %d and %d\n%s=>\n%s",
				seed, len(fusions), g.NumNodes(), wantFusions, wantNodes, uncompiled, compiled)
		}
		for id := 0; id < g.NumNodes(); id++ {
			for _, p := range g.InputsOf(exec.NodeID(id)) {
				if fusible(g, p.Node) && (fusible(g, exec.NodeID(id)) || absorbTarget(g.OperatorAt(exec.NodeID(id)))) {
					t.Fatalf("seed %d: %s still feeds %s\n%s=>\n%s", seed,
						g.NameAt(p.Node), g.NameAt(exec.NodeID(id)), uncompiled, compiled)
				}
			}
		}
		again, err := Rewrite(g)
		if err != nil || len(again) != 0 || wiring(g) != compiled {
			t.Fatalf("seed %d: second Rewrite = %+v, %v\n%s=>\n%s", seed, again, err, compiled, wiring(g))
		}
		if err := g.Run(); err != nil {
			t.Fatalf("seed %d: compiled plan: %v\n%s", seed, err, compiled)
		}
	}
}

// ---------------------------------------------------------------------------
// Kernel allocation: a chain that rebuilds no tuple (select + carry-all
// project/map) allocates nothing; a chain that does (project dropping a
// column, map computing one) allocates the run's slab and nothing else.
// ---------------------------------------------------------------------------

// discardCtx is a no-op exec.Context for direct kernel measurement.
type discardCtx struct{}

func (discardCtx) Emit(stream.Tuple)               {}
func (discardCtx) EmitTo(int, stream.Tuple)        {}
func (discardCtx) EmitBatch([]stream.Tuple)        {}
func (discardCtx) EmitBatchTo(int, []stream.Tuple) {}
func (discardCtx) EmitPunct(punct.Embedded)        {}
func (discardCtx) EmitPunctTo(int, punct.Embedded) {}
func (discardCtx) SendFeedback(int, core.Feedback) {}
func (discardCtx) ShutdownUpstream(int)            {}
func (discardCtx) NumInputs() int                  { return 1 }

func TestFusedKernelZeroAlloc(t *testing.T) {
	expr, err := punct.NewExpr(chainSchema.Arity(),
		punct.ExprStep{Col: 0, Name: "a", Pred: punct.Le(stream.Int(3))},
		punct.ExprStep{Col: 3, Name: "v", Pred: punct.Ge(stream.Float(10))})
	if err != nil {
		t.Fatal(err)
	}
	carries := make([]op.MapAttr, chainSchema.Arity())
	for i := 0; i < chainSchema.Arity(); i++ {
		carries[i] = op.Carry(chainSchema.Field(i).Name)
	}
	fused, err := New([]exec.Operator{
		&op.Select{OpName: "sel", Schema: chainSchema, Expr: expr, Mode: op.FeedbackExploit},
		&op.Project{OpName: "keep", In: chainSchema, Keep: []string{"a", "b", "ts", "v"}},
		&op.Map{OpName: "norm", In: chainSchema, Outs: carries},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := discardCtx{}
	if err := fused.Open(ctx); err != nil {
		t.Fatal(err)
	}
	tp := stream.NewTuple(stream.Int(1), stream.Int(2), stream.TimeMicros(3), stream.Float(55))
	allocs := testing.AllocsPerRun(1000, func() {
		if err := fused.ProcessTuple(0, tp, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused kernel allocates %.1f per tuple, want 0", allocs)
	}
}

// mappingChain is the shape the benchmark's stateless workload runs: select →
// project that drops a column → map with one computed attribute. Its select
// keeps tuples with a ≤ 3.
func mappingChain(t testing.TB) *Fused {
	expr, err := punct.NewExpr(chainSchema.Arity(),
		punct.ExprStep{Col: 0, Name: "a", Pred: punct.Le(stream.Int(3))})
	if err != nil {
		t.Fatal(err)
	}
	keep := &op.Project{OpName: "keep", In: chainSchema, Keep: []string{"a", "ts", "v"}}
	fused, err := New([]exec.Operator{
		&op.Select{OpName: "sel", Schema: chainSchema, Expr: expr, Mode: op.FeedbackExploit},
		keep,
		&op.Map{OpName: "double", In: keep.OutSchemas()[0], Outs: []op.MapAttr{
			op.Carry("a"), op.Carry("ts"),
			op.Compute("v2", stream.KindFloat, func(t stream.Tuple) stream.Value { return stream.Float(2 * t.At(2).F) }),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fused.Open(discardCtx{}); err != nil {
		t.Fatal(err)
	}
	return fused
}

// TestStepLabels pins how a mapping step is labelled: by what it does, not by
// the operator it came from. A Map that only carries (cmd/supervise's
// carry-all "norm") is a project step, like a Project; a Map computing an
// attribute is a map step. Explain and the pace_op_* kind labels agree.
func TestStepLabels(t *testing.T) {
	f := mappingChain(t)
	carries := make([]op.MapAttr, chainSchema.Arity())
	for i := range carries {
		carries[i] = op.Carry(chainSchema.Field(i).Name)
	}
	norm, err := New([]exec.Operator{&op.Map{OpName: "norm", In: chainSchema, Outs: carries}})
	if err != nil {
		t.Fatal(err)
	}
	const want = "select sel [a<=3] | project keep -> (a:int, ts:time, v:float) | map double -> (a:int, ts:time, v2:float)"
	if got := f.Explain(); got != want {
		t.Errorf("Explain = %q, want %q", got, want)
	}
	if got, want := norm.Explain(), "project norm -> "+chainSchema.String(); got != want {
		t.Errorf("carry-only Map: Explain = %q, want %q", got, want)
	}
	kinds := map[string]string{}
	for _, fk := range []*Fused{f, norm} {
		for _, v := range fk.TelemetryVars() {
			if v.Labels["step"] != "" {
				kinds[v.Labels["step"]] = v.Labels["kind"]
			}
		}
	}
	if want := map[string]string{"sel": "select", "keep": "project", "double": "map", "norm": "project"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("kind labels = %v, want %v", kinds, want)
	}
}

// TestFusedKernelMappingAllocs pins the mapping-shaped chain: one slab per
// run however many tuples survive, one per surviving single tuple, nothing
// for a tuple the select drops before any step rebuilds it.
func TestFusedKernelMappingAllocs(t *testing.T) {
	fused := mappingChain(t)
	ctx := discardCtx{}
	run := make([]queue.Item, 64) // the select keeps 4 of every 5
	for i := range run {
		run[i] = queue.TupleItem(stream.NewTuple(stream.Int(int64(i%5)), stream.Int(7),
			stream.TimeMicros(int64(i)*1000), stream.Float(55)))
	}
	if err := fused.ProcessTupleBatch(0, run, ctx); err != nil {
		t.Fatal(err) // warm: survivor scratch grown
	}
	if n := testing.AllocsPerRun(500, func() {
		_ = fused.ProcessTupleBatch(0, run, ctx)
	}); n > 1 {
		t.Fatalf("mapping kernel allocates %.1f per 64-tuple run, want at most 1", n)
	}
	kept, dropped := run[0].Tuple, run[4].Tuple
	if n := testing.AllocsPerRun(500, func() {
		_ = fused.ProcessTuple(0, kept, ctx)
	}); n != 1 {
		t.Fatalf("mapping kernel allocates %.1f per surviving tuple, want 1", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		_ = fused.ProcessTuple(0, dropped, ctx)
	}); n != 0 {
		t.Fatalf("mapping kernel allocates %.1f per dropped tuple, want 0", n)
	}
}

// captureCtx records everything a kernel emits, in order.
type captureCtx struct {
	items []queue.Item
	fb    []core.Feedback
}

func (c *captureCtx) Emit(t stream.Tuple)                  { c.items = append(c.items, queue.TupleItem(t)) }
func (c *captureCtx) EmitTo(_ int, t stream.Tuple)         { c.Emit(t) }
func (c *captureCtx) EmitBatchTo(_ int, ts []stream.Tuple) { c.EmitBatch(ts) }
func (c *captureCtx) EmitBatch(ts []stream.Tuple) {
	for _, t := range ts {
		c.Emit(t)
	}
}
func (c *captureCtx) EmitPunct(e punct.Embedded)          { c.items = append(c.items, queue.PunctItem(e)) }
func (c *captureCtx) EmitPunctTo(_ int, e punct.Embedded) { c.EmitPunct(e) }
func (c *captureCtx) SendFeedback(_ int, f core.Feedback) { c.fb = append(c.fb, f) }
func (c *captureCtx) ShutdownUpstream(int)                {}
func (c *captureCtx) NumInputs() int                      { return 1 }

// TestFusedBatchEqualsPerTuple pins the TupleBatcher contract directly: for
// random chains and random scripts of tuple runs, punctuation, and feedback,
// ProcessTupleBatch must produce the same emissions, upstream feedback, and
// per-step counters as calling ProcessTuple on each tuple in order.
func TestFusedBatchEqualsPerTuple(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := randChain(rng)
		outSchema := specs[len(specs)-1].out
		build := func() (*Fused, []exec.Operator) {
			ops := make([]exec.Operator, len(specs))
			for i, s := range specs {
				ops[i] = s.build()
			}
			f, err := New(ops)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return f, ops
		}
		single, singleOps := build()
		batched, batchedOps := build()
		sc, bc := &captureCtx{}, &captureCtx{}
		if err := single.Open(sc); err != nil {
			t.Fatal(err)
		}
		if err := batched.Open(bc); err != nil {
			t.Fatal(err)
		}
		var seq int64
		for ev := 0; ev < 15; ev++ {
			run := make([]queue.Item, 1+rng.Intn(7))
			for i := range run {
				run[i] = queue.TupleItem(randTuple(rng, ev*10+i))
			}
			for _, it := range run {
				if err := single.ProcessTuple(0, it.Tuple, sc); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if err := batched.ProcessTupleBatch(0, run, bc); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			switch rng.Intn(3) {
			case 0:
				e := punct.NewEmbedded(randPattern(rng, chainSchema))
				if err := single.ProcessPunct(0, e, sc); err != nil {
					t.Fatal(err)
				}
				if err := batched.ProcessPunct(0, e, bc); err != nil {
					t.Fatal(err)
				}
			case 1:
				seq++
				f := core.Feedback{
					Intent:  []core.Intent{core.Assumed, core.Desired, core.Demanded}[rng.Intn(3)],
					Pattern: randPattern(rng, outSchema),
					Origin:  "downstream", Seq: seq,
				}
				if err := single.ProcessFeedback(0, f, sc); err != nil {
					t.Fatal(err)
				}
				if err := batched.ProcessFeedback(0, f, bc); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !reflect.DeepEqual(sc.items, bc.items) {
			t.Fatalf("seed %d: emissions diverge: per-tuple %d items, batch %d items",
				seed, len(sc.items), len(bc.items))
		}
		if !reflect.DeepEqual(sc.fb, bc.fb) {
			t.Fatalf("seed %d: upstream feedback diverges", seed)
		}
		for i := range singleOps {
			if a, b := opStats(singleOps[i]), opStats(batchedOps[i]); a != b {
				t.Fatalf("seed %d step %d: stats diverge: per-tuple %v, batch %v", seed, i, a, b)
			}
		}
	}
}

// ownCtx is a one-goroutine stand-in for the node runner: the kernel's slabs
// are recycled ones (Slab), what it emits goes onto real pages that adopt
// them, and the pages are consumed — checked against deep copies taken at
// emission, then released — at the test's own, lagging pace.
type ownCtx struct {
	discardCtx
	t      *testing.T
	slabs  queue.Aliases
	conn   *queue.Conn
	copies []stream.Tuple // every emitted tuple, cloned as it was emitted
	seen   int            // copies[:seen] were consumed
	// rebuilt: the chain has a mapping step, so what it emits is its own
	// memory (and not its inputs') and may be written to find overlaps.
	rebuilt bool
}

func newOwnCtx(t *testing.T, pageSize int) *ownCtx {
	c := &ownCtx{t: t, conn: queue.New(queue.Options{PageSize: pageSize, Depth: 1 << 12})}
	c.conn.BindAliases(&c.slabs)
	return c
}

func (c *ownCtx) Slab(n int) []stream.Value { return c.slabs.Get(n) }

func (c *ownCtx) Emit(t stream.Tuple) {
	if cap(t.Values) != len(t.Values) {
		c.t.Errorf("emitted tuple %v has cap %d over len %d: an append would reach its neighbour",
			t, cap(t.Values), len(t.Values))
	}
	c.conn.PutTuple(t)
	c.copies = append(c.copies, t.Clone())
}

func (c *ownCtx) EmitBatch(ts []stream.Tuple) {
	for i := range ts {
		c.Emit(ts[i])
	}
}

// consume takes up to max published pages. Whatever the kernel has done since
// it emitted them, their tuples read as emitted; then each tuple is stamped
// with its own index through its Values, so two tuples sharing memory — on
// this page or on one consumed later — cannot both read right.
func (c *ownCtx) consume(when string, max int) {
	for ; max > 0; max-- {
		p := c.conn.TryRecv()
		if p == nil {
			return
		}
		first := c.seen
		for _, it := range p.Items {
			if it.Kind != queue.ItemTuple {
				continue
			}
			if !reflect.DeepEqual(it.Tuple, c.copies[c.seen]) {
				c.t.Fatalf("%s: emitted tuple %d changed on its page: was %v, now %v", when, c.seen, c.copies[c.seen], it.Tuple)
			}
			c.seen++
		}
		if !c.rebuilt {
			queue.Release(p)
			continue
		}
		for i, it := range p.Items[:c.seen-first] {
			for j := range it.Tuple.Values {
				it.Tuple.Values[j] = stream.Int(int64(first + i))
			}
		}
		for i, it := range p.Items[:c.seen-first] {
			for _, v := range it.Tuple.Values {
				if v.I != int64(first+i) {
					c.t.Fatalf("%s: emitted tuples %d and %d overlap", when, first+i, v.I)
				}
			}
		}
		queue.Release(p)
	}
}

// TestFusedEmittedTuplesOwnTheirValues is the slab ownership rule (DESIGN.md
// §2.4) from the kernel's side: whatever it runs afterwards — further runs in
// slabs the pool hands back, single tuples, punctuation, feedback that turns
// guards on — a tuple it emitted keeps its values for as long as a page
// carrying it is alive, no emitted tuple has room to grow into another, no
// two share memory, and the inputs are never written. Scratch escaping the
// kernel loop, two survivors sharing a slot, or a slab drawn again while a
// page still holds its tuples would each fail here.
func TestFusedEmittedTuplesOwnTheirValues(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := randChain(rng)
		outSchema := specs[len(specs)-1].out
		ops := make([]exec.Operator, len(specs))
		for i, s := range specs {
			ops[i] = s.build()
		}
		fused, err := New(ops)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		own := newOwnCtx(t, 1+rng.Intn(40))
		own.rebuilt = fused.lastMap >= 0
		if err := fused.Open(own); err != nil {
			t.Fatal(err)
		}
		var inputs, inputCopies []stream.Tuple
		var seq int64
		for ev := 0; ev < 30; ev++ {
			when := fmt.Sprintf("seed %d event %d", seed, ev)
			own.slabs.Begin(nil) // one callback is one activation
			switch r := rng.Intn(10); {
			case r < 5:
				run := make([]queue.Item, 1+rng.Intn(70))
				for i := range run {
					tp := randTuple(rng, ev*100+i)
					run[i] = queue.TupleItem(tp)
					inputs, inputCopies = append(inputs, tp), append(inputCopies, tp.Clone())
				}
				if err := fused.ProcessTupleBatch(0, run, own); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			case r < 7:
				tp := randTuple(rng, ev*100)
				inputs, inputCopies = append(inputs, tp), append(inputCopies, tp.Clone())
				if err := fused.ProcessTuple(0, tp, own); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			case r < 8:
				if err := fused.ProcessPunct(0, punct.NewEmbedded(randPattern(rng, chainSchema)), own); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			default:
				seq++
				f := core.Feedback{Intent: core.Assumed, Pattern: randPattern(rng, outSchema), Origin: "downstream", Seq: seq}
				if err := fused.ProcessFeedback(0, f, own); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			own.slabs.End()
			own.consume(when, rng.Intn(3))
		}
		own.conn.CloseSend()
		own.consume(fmt.Sprintf("seed %d end", seed), 1<<12)
		if own.seen != len(own.copies) {
			t.Fatalf("seed %d: consumed %d of %d emitted tuples", seed, own.seen, len(own.copies))
		}
		if !reflect.DeepEqual(inputs, inputCopies) {
			t.Fatalf("seed %d: the kernel wrote into its input tuples", seed)
		}
	}
}
