package plan

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fuse"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// carryAll builds a carry-every-attribute Map stage (identity on values).
func carryAll(sch stream.Schema) []op.MapAttr {
	outs := make([]op.MapAttr, sch.Arity())
	for i := 0; i < sch.Arity(); i++ {
		outs[i] = op.Carry(sch.Field(i).Name)
	}
	return outs
}

// assertCompiledOnce checks that Compile left nothing for a second pass: a
// repeated Rewrite applies no fusion and changes nothing, and no stateless
// operator survives in front of a node it could have been compiled into (the
// builder wires every output to one consumer, so any such edge is a miss).
func assertCompiledOnce(t *testing.T, seed int64, b *Builder) {
	t.Helper()
	g, compiled := b.Graph(), b.Explain()
	stateless := func(id exec.NodeID) bool {
		switch g.OperatorAt(id).(type) {
		case *op.Select, *op.Project, *op.Map:
			return true
		}
		return false
	}
	for id := exec.NodeID(0); int(id) < g.NumNodes(); id++ {
		absorbs := false
		switch g.OperatorAt(id).(type) {
		case *op.Aggregate, *op.Join, *op.Impute, *op.Pace, *op.Split:
			absorbs = true
		}
		for _, p := range g.InputsOf(id) {
			if stateless(p.Node) && (absorbs || stateless(id)) {
				t.Fatalf("seed %d: %s still feeds %s:\n%s", seed, g.NameAt(p.Node), g.NameAt(id), compiled)
			}
		}
	}
	again, err := fuse.Rewrite(g)
	if err != nil || len(again) != 0 || b.Explain() != compiled {
		t.Fatalf("seed %d: second Rewrite = %+v, %v\n%s=>\n%s", seed, again, err, compiled, b.Explain())
	}
}

// TestFusedPlanDigestIdentity is the graph-level property test: randomly
// generated plans mixing stateless chains, embedded punctuation, Parallel(n)
// and a windowed aggregate must produce the same canonical digest compiled
// (Builder.Compile → fused kernels) and uncompiled, under the real
// concurrent runtime.
func TestFusedPlanDigestIdentity(t *testing.T) {
	build := func(seed int64, fused bool) (*Builder, *exec.Collector) {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		if rng.Intn(3) == 0 {
			b.Mode = op.FeedbackIgnore
		}
		src := &exec.SliceSource{SourceName: "src", Schema: testSchema, Items: aggWorkload(3000), BatchSize: 64}
		s := b.Source(src)
		stages := 1 + rng.Intn(3)
		for i := 0; i < stages; i++ {
			switch rng.Intn(3) {
			case 0:
				cut := stream.Float(float64(25 + rng.Intn(20)))
				s = s.SelectExpr(nameOf("f", i), punct.ExprStep{
					Col: s.Schema().Index("speed"), Name: "speed", Pred: punct.Ge(cut)})
			case 1:
				s = s.Map(nameOf("norm", i), carryAll(s.Schema())...)
			default:
				// Rotate the attribute order: exercises non-identity
				// projection, punct re-mapping, and feedback attr maps.
				names := make([]string, s.Schema().Arity())
				for j := range names {
					names[j] = s.Schema().Field((j + 1) % len(names)).Name
				}
				s = s.Project(nameOf("rot", i), names...)
			}
		}
		if rng.Intn(2) == 0 {
			parts := 1 + rng.Intn(3)
			s = s.Parallel("p", parts, []string{"segment"}, func(ss Stream) Stream {
				ss = ss.Map("pnorm", carryAll(ss.Schema())...)
				return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
					window.Tumbling(1_000_000), "avg_speed")
			})
		} else {
			s = s.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(1_000_000), "avg_speed")
		}
		sink := s.Collect("sink")
		if fused {
			b.Compile()
		}
		return b, sink
	}

	for seed := int64(0); seed < 12; seed++ {
		bu, su := build(seed, false)
		if err := bu.Run(); err != nil {
			t.Fatalf("seed %d unfused: %v", seed, err)
		}
		bf, sf := build(seed, true)
		assertCompiledOnce(t, seed, bf)
		if err := bf.Run(); err != nil {
			t.Fatalf("seed %d fused: %v", seed, err)
		}
		want, got := su.Lines(), sf.Lines()
		if len(want) == 0 {
			t.Fatalf("seed %d produced no results", seed)
		}
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Fatalf("seed %d: fused digest diverges from unfused\nunfused: %d lines\nfused:   %d lines",
				seed, len(want), len(got))
		}
	}
}

func nameOf(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// TestFusedParallelBoundaries pins the fusion boundaries on a builder-
// assembled plan: the pre-split chain and each partition's stateless prefix
// fuse, while Split, Merge, and the stateful Aggregate survive as nodes.
func TestFusedParallelBoundaries(t *testing.T) {
	b := New()
	src := &exec.SliceSource{SourceName: "src", Schema: testSchema, Items: aggWorkload(500)}
	s := b.Source(src).
		SelectExpr("clean", punct.ExprStep{Col: 2, Name: "speed", Pred: punct.Ge(stream.Float(0))}).
		Map("norm", carryAll(testSchema)...)
	s = s.Parallel("p", 2, []string{"segment"}, func(ss Stream) Stream {
		ss = ss.SelectExpr("pf", punct.ExprStep{Col: 1, Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))}).
			Map("pm", carryAll(ss.Schema())...)
		return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
			window.Tumbling(1_000_000), "avg_speed")
	})
	s.Collect("sink")
	b.Compile()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}

	g := b.Graph()
	var names []string
	for i := 0; i < g.NumNodes(); i++ {
		names = append(names, g.NameAt(exec.NodeID(i)))
	}
	// The pre-split chain and each partition's stateless prefix are absorbed
	// into the Split and each Aggregate as prefix kernels. Merge — the
	// punctuation-alignment point — survives untouched, and the stateful
	// nodes keep their identity inside the prefixed wrappers.
	want := []string{"src", "fused(clean+norm=>p.split)", "fused(pf+pm=>avg)", "fused(pf+pm=>avg)", "p.merge", "sink"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("compiled plan = %v, want %v", names, want)
	}
	var absorbed []string
	for i := 0; i < g.NumNodes(); i++ {
		if pf, ok := g.OperatorAt(exec.NodeID(i)).(*fuse.Prefixed); ok {
			absorbed = append(absorbed, pf.Inner().Name())
		}
	}
	if strings.Join(absorbed, ",") != "p.split,avg,avg" {
		t.Fatalf("prefixed consumers = %v, want [p.split avg avg]", absorbed)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFusedCheckpointRecoverIdentity proves barrier alignment is unchanged
// by fusion: a compiled plan with a fused stateless prefix is checkpointed
// mid-stream, killed, and restored into an identically compiled plan; the
// result must match an uninterrupted *unfused* run — fused ≡ unfused across
// checkpoint → kill → restore.
func TestFusedCheckpointRecoverIdentity(t *testing.T) {
	items := aggWorkload(6000)
	gateAt := len(items) * 3 / 5

	build := func(fused, gateOpen bool) (*Builder, *gatedItems, *exec.Collector) {
		b := New()
		src := &gatedItems{name: "src", schema: testSchema, items: items, gateAt: gateAt}
		src.gate.Store(gateOpen)
		s := b.Source(src).
			SelectExpr("clean", punct.ExprStep{Col: 1, Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))}).
			Map("norm", carryAll(testSchema)...)
		// The per-partition stateless prefix makes each aggregate an
		// absorb target, so the checkpoint cuts (and the restore fills) a
		// Prefixed node wrapping the stateful aggregate.
		out := s.Parallel("p", 2, []string{"segment"}, func(ss Stream) Stream {
			ss = ss.SelectExpr("pclean", punct.ExprStep{Col: 1, Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))}).
				Map("pnorm", carryAll(ss.Schema())...)
			return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(1_000_000), "avg_speed")
		})
		sink := out.Collect("sink")
		if fused {
			b.Compile()
		}
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		return b, src, sink
	}

	// Unfused, uninterrupted reference.
	bRef, _, sinkRef := build(false, true)
	if err := bRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := sinkRef.Lines()
	if len(want) == 0 {
		t.Fatal("workload produced no results")
	}

	// Fused run parked at the gate: checkpoint, then kill.
	b1, src1, _ := build(true, false)
	runErr := make(chan error, 1)
	go func() { runErr <- b1.Run() }()
	for deadline := time.Now().Add(10 * time.Second); src1.pos.Load() < int64(gateAt); {
		if time.Now().After(deadline) {
			t.Fatalf("source stuck at %d/%d", src1.pos.Load(), gateAt)
		}
		time.Sleep(time.Millisecond)
	}
	backend := snapshot.NewMemory()
	checkpointLocal(t, b1, backend)
	b1.Graph().Kill()
	if err := <-runErr; !errors.Is(err, exec.ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	// Restore into an identically compiled plan and finish.
	b2, _, sink2 := build(true, true)
	restoreLocal(t, b2, backend)
	if err := b2.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink2.Lines()
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Fatalf("fused checkpoint-recover digest diverges: %d lines vs %d", len(got), len(want))
	}
}

// TestFusedStatefulDigestIdentity is the prefix-kernel graph-level property
// test: randomly generated plans whose stateless prefixes feed stateful consumers
// — a windowed aggregate, a Parallel(n) partition fan (Split + per-partition
// aggregates), a symmetric hash join, a Pace union — must produce the same
// canonical digest compiled (prefix kernels absorbed into the consumers,
// batched stateful apply) and uncompiled, across feedback modes and embedded
// punctuation, under the real concurrent runtime.
func TestFusedStatefulDigestIdentity(t *testing.T) {
	build := func(seed int64, fused bool) (*Builder, *exec.Collector) {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		switch rng.Intn(4) {
		case 0:
			b.Mode = op.FeedbackIgnore
		case 1:
			b.Mode = op.FeedbackGuardOutput
		}
		src := &exec.SliceSource{SourceName: "src", Schema: testSchema, Items: aggWorkload(2500), BatchSize: 64}
		s := b.Source(src)
		prefix := func(s Stream, tag string) Stream {
			n := 1 + rng.Intn(2)
			for i := 0; i < n; i++ {
				switch rng.Intn(3) {
				case 0:
					cut := stream.Float(float64(25 + rng.Intn(20)))
					s = s.SelectExpr(tag+nameOf("f", i), punct.ExprStep{
						Col: s.Schema().Index("speed"), Name: "speed", Pred: punct.Ge(cut)})
				case 1:
					s = s.Map(tag+nameOf("m", i), carryAll(s.Schema())...)
				default:
					names := make([]string, s.Schema().Arity())
					for j := range names {
						names[j] = s.Schema().Field((j + 1) % len(names)).Name
					}
					s = s.Project(tag+nameOf("r", i), names...)
				}
			}
			return s
		}
		switch seed % 4 {
		case 0: // prefix absorbed into a lone aggregate
			s = prefix(s, "a")
			s = s.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(1_000_000), "avg_speed")
		case 1: // prefix absorbed into Split, per-partition prefixes into aggregates
			s = prefix(s, "pre")
			parts := 1 + rng.Intn(3)
			s = s.Parallel("p", parts, []string{"segment"}, func(ss Stream) Stream {
				ss = ss.SelectExpr("pclean", punct.ExprStep{
					Col: ss.Schema().Index("ts"), Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))}).
					Map("pnorm", carryAll(ss.Schema())...)
				return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
					window.Tumbling(1_000_000), "avg_speed")
			})
		case 2: // prefixes absorbed into both join inputs
			outs := s.Duplicate("dup", 2)
			l := prefix(outs[0], "l")
			r := outs[1].Map("rn",
				op.MapAttr{Name: "rseg", From: "segment"}, op.MapAttr{Name: "rts", From: "ts"}, op.MapAttr{Name: "rspeed", From: "speed"})
			s = join(t, "j", l, r, []string{"segment", "ts"}, []string{"rseg", "rts"}, "ts", "rts")
		default: // prefixes absorbed into both Pace inputs (tolerance too wide to drop)
			outs := s.Duplicate("dup", 2)
			l := outs[0].Map("lm", carryAll(testSchema)...)
			r := outs[1].SelectExpr("rf", punct.ExprStep{Col: 1, Name: "ts", Pred: punct.Ge(stream.TimeMicros(0))})
			s = l.Pace("pace", "ts", 1<<60, r)
		}
		sink := s.Collect("sink")
		if fused {
			b.Compile()
		}
		if err := b.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return b, sink
	}

	for seed := int64(0); seed < 12; seed++ {
		bu, su := build(seed, false)
		if err := bu.Run(); err != nil {
			t.Fatalf("seed %d unfused: %v", seed, err)
		}
		bf, sf := build(seed, true)
		hasAbsorb := false
		for id := 0; id < bf.Graph().NumNodes(); id++ {
			if _, ok := bf.Graph().OperatorAt(exec.NodeID(id)).(*fuse.Prefixed); ok {
				hasAbsorb = true
			}
		}
		if !hasAbsorb {
			t.Fatalf("seed %d: compiled plan absorbed no prefix:\n%s", seed, bf.Explain())
		}
		assertCompiledOnce(t, seed, bf)
		if err := bf.Run(); err != nil {
			t.Fatalf("seed %d fused: %v", seed, err)
		}
		want, got := su.Lines(), sf.Lines()
		if len(want) == 0 {
			t.Fatalf("seed %d produced no results", seed)
		}
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Fatalf("seed %d: prefixed digest diverges from unfused\nunfused: %d lines\nfused:   %d lines",
				seed, len(want), len(got))
		}
	}
}

// TestProjectBadKeepIsBuilderError is the satellite bugfix: a bad Keep list
// must surface through Builder.Err() at wiring time, not panic at the first
// OutSchemas call.
func TestProjectBadKeepIsBuilderError(t *testing.T) {
	b := New()
	b.Source(testSource("s", reading(1, 10, 50))).
		Project("narrow", "segment", "nope").
		Collect("sink")
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Err() = %v, want projection error", err)
	}
	if err := b.Run(); err == nil {
		t.Fatal("Run succeeded on a bad projection")
	}
}

// TestThroughBadOperatorIsBuilderError covers the same panic path when the
// misconfigured operator arrives through the escape hatch.
func TestThroughBadOperatorIsBuilderError(t *testing.T) {
	b := New()
	b.Source(testSource("s", reading(1, 10, 50))).
		Through(&op.Project{OpName: "bad", In: testSchema, Keep: []string{"missing"}}).
		Collect("sink")
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("Err() = %v, want projection error", err)
	}
}

// TestMapBadAttrIsBuilderError: unknown From attributes surface as errors.
func TestMapBadAttrIsBuilderError(t *testing.T) {
	b := New()
	b.Source(testSource("s", reading(1, 10, 50))).
		Map("m", op.Carry("absent")).
		Collect("sink")
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "absent") {
		t.Fatalf("Err() = %v, want map error", err)
	}
}

// TestExplainRendersFusedKernels: the compiled plan rendering names fused
// nodes and their step tables.
func TestExplainRendersFusedKernels(t *testing.T) {
	b := New()
	b.Source(testSource("s", reading(1, 10, 50))).
		SelectExpr("where", punct.ExprStep{Col: 2, Name: "speed", Pred: punct.Ge(stream.Float(30))}).
		Map("norm", carryAll(testSchema)...).
		Collect("sink")
	b.Compile()
	out := b.Explain()
	for _, want := range []string{"fused(where+norm)", "kernel:", "speed>=30"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
}

// fedSource emits one page of traffic, then nothing until feedback has
// reached it, then the rest: every guard that feedback installed on its way
// upstream is in place before the rest is offered. (Its Next and
// ProcessFeedback run on one goroutine, which drains control between calls.)
type fedSource struct {
	schema     stream.Schema
	head, rest []stream.Tuple
	sent, fed  bool
}

func (s *fedSource) Name() string                { return "fedsrc" }
func (s *fedSource) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *fedSource) Open(exec.Context) error     { return nil }
func (s *fedSource) Close(exec.Context) error    { return nil }
func (s *fedSource) ProcessFeedback(int, core.Feedback, exec.Context) error {
	s.fed = true
	return nil
}

func (s *fedSource) Next(ctx exec.Context) (bool, error) {
	switch {
	case !s.sent:
		ctx.EmitBatch(s.head)
		s.sent = true
	case !s.fed:
		runtime.Gosched()
	default:
		ctx.EmitBatch(s.rest)
		return false, nil
	}
	return true, nil
}

// scrapeOpSeries renders the registry as /metrics does and returns the one
// sample of the named series whose label block contains label.
func scrapeOpSeries(t *testing.T, reg *telemetry.Registry, name, label string) int64 {
	t.Helper()
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	var found []int64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name+"{") || !strings.Contains(line, label) {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		found = append(found, v)
	}
	if len(found) != 1 {
		t.Fatalf("%d samples of %s with %s, want 1:\n%s", len(found), name, label, buf.String())
	}
	return found[0]
}

// TestSuppressedCounterHasOneHome runs select → project → sink with a guard
// that suppresses a known share of the input, unfused and compiled. The
// operator's own counter is the only copy: what /metrics reports as
// pace_op_suppressed_tuples_total is what Select.Stats() returns, and inside
// the fused kernel the select step counts into that same Select.
func TestSuppressedCounterHasOneHome(t *testing.T) {
	const restTuples, segments = 900, 9
	run := func(compile bool) (*Builder, *op.Select, *telemetry.Registry) {
		src := &fedSource{schema: testSchema}
		for i := int64(0); i < queue.DefaultPageSize+restTuples; i++ {
			tp := reading(i%segments, 1000*(i+1), 55)
			if i < queue.DefaultPageSize {
				src.head = append(src.head, tp) // exactly one page: it is handed on as it fills
			} else {
				src.rest = append(src.rest, tp)
			}
		}
		expr, err := punct.NewExpr(testSchema.Arity(), punct.ExprStep{Col: 2, Name: "speed", Pred: punct.Ge(stream.Float(10))})
		if err != nil {
			t.Fatal(err)
		}
		sel := &op.Select{OpName: "hot", Schema: testSchema, Expr: expr, Mode: op.FeedbackExploit, Propagate: true}
		b := New()
		b.Source(src).
			Through(sel).
			Project("keep", "segment", "ts", "speed").
			Into(&feedSink{schema: testSchema, quota: math.MaxInt64}) // asserts ¬[segment=2] after 10 tuples
		if compile {
			b.Compile()
		}
		tel := telemetry.New()
		b.EnableTelemetry(tel)
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		return b, sel, tel.Registry
	}

	_, sel, reg := run(false)
	in, out, want := sel.Stats()
	if want != restTuples/segments {
		t.Fatalf("select suppressed %d tuples, want %d (every segment-2 tuple sent after the feedback)", want, restTuples/segments)
	}
	if got := scrapeOpSeries(t, reg, "pace_op_suppressed_tuples_total", `op="hot"`); got != want {
		t.Errorf("unfused: scraped %d, Select.Stats() says %d", got, want)
	}

	b, sel, reg := run(true)
	kernel := false
	for id := 0; id < b.Graph().NumNodes(); id++ {
		_, ok := b.Graph().OperatorAt(exec.NodeID(id)).(*fuse.Fused)
		kernel = kernel || ok
	}
	if !kernel {
		t.Fatalf("no fused kernel in the compiled plan:\n%s", b.Explain())
	}
	if fin, fout, fsup := sel.Stats(); fin != in || fout != out || fsup != want {
		t.Errorf("fused: Select.Stats() = %d %d %d, unfused %d %d %d", fin, fout, fsup, in, out, want)
	}
	for name, v := range map[string]int64{
		"pace_op_tuples_in_total": in, "pace_op_tuples_out_total": out, "pace_op_suppressed_tuples_total": want,
	} {
		if got := scrapeOpSeries(t, reg, name, `step="hot"`); got != v {
			t.Errorf("fused: scraped %s %d for the select step, Select.Stats() says %d", name, got, v)
		}
	}
}
