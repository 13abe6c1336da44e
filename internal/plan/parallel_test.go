package plan

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/window"
)

// aggWorkload builds a deterministic stream in watermark discipline:
// strictly increasing timestamps over 9 segments, punctuation roughly
// every 40 tuples plus a closing one.
func aggWorkload(n int) []queue.Item {
	rng := rand.New(rand.NewSource(7))
	var items []queue.Item
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += 1 + int64(rng.Intn(2000))
		items = append(items, queue.TupleItem(reading(int64(rng.Intn(9)), ts, 30+float64(rng.Intn(50)))))
		if rng.Intn(40) == 0 {
			items = append(items, queue.PunctItem(punct.NewEmbedded(
				punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(ts))))))
		}
	}
	items = append(items, queue.PunctItem(punct.NewEmbedded(
		punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(ts))))))
	return items
}

func runPartitionedAvg(t *testing.T, n int) ([]string, *Builder) {
	t.Helper()
	b := New()
	src := &exec.SliceSource{SourceName: "s", Schema: testSchema, Items: aggWorkload(8000)}
	out := b.Source(src).Parallel("p", n, []string{"segment"}, func(ss Stream) Stream {
		return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
			window.Tumbling(1_000_000), "avg_speed")
	})
	sink := out.Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, 64)
	for _, tp := range sink.Tuples() {
		lines = append(lines, tp.String())
	}
	// The merge interleaves partitions nondeterministically; canonicalize
	// by sorting so the comparison is over the result multiset.
	sort.Strings(lines)
	return lines, b
}

// TestParallelAggregateEquivalence is the acceptance check: a plan with
// Aggregate parallelized 4 ways produces byte-identical results (in
// canonical order) to the single-partition plan. Per-group fold order is
// preserved by hash routing, so even float aggregates match exactly.
func TestParallelAggregateEquivalence(t *testing.T) {
	base, _ := runPartitionedAvg(t, 1)
	if len(base) == 0 {
		t.Fatal("workload produced no aggregate results")
	}
	for _, n := range []int{2, 4} {
		got, _ := runPartitionedAvg(t, n)
		if len(got) != len(base) {
			t.Fatalf("n=%d produced %d results, n=1 produced %d", n, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("n=%d result %d = %s, want %s", n, i, got[i], base[i])
			}
		}
	}
}

// TestParallelEdgeLabels checks that partition edges carry labels through
// Graph.Edges and that the precomputed consumer map resolves every consumer.
func TestParallelEdgeLabels(t *testing.T) {
	_, b := runPartitionedAvg(t, 3)
	labelled := 0
	lastMergeInput := false
	for _, e := range b.Graph().Edges() {
		if e.Consumer == "?" {
			t.Fatalf("edge %s[%d] has no consumer in the prepared map", e.Producer, e.Out)
		}
		if e.Label != "" {
			if !strings.HasPrefix(e.Label, "part=") {
				t.Fatalf("unexpected label %q", e.Label)
			}
			labelled++
		}
		if e.Consumer == "p.merge" && e.Input == 2 && e.Label == "part=2/3" {
			lastMergeInput = true
		}
	}
	// 3 split→replica edges plus 3 replica→merge edges.
	if labelled != 6 {
		t.Fatalf("labelled %d edges, want 6", labelled)
	}
	if !lastMergeInput {
		t.Fatalf("no edge labelled part=2/3 into p.merge input 2: %+v", b.Graph().Edges())
	}
}

func TestParallelValidation(t *testing.T) {
	b := New()
	s := b.Source(&exec.SliceSource{SourceName: "s", Schema: testSchema})
	s.Parallel("p", 0, nil, func(ss Stream) Stream { return ss })
	if err := b.Err(); err == nil {
		t.Fatal("n=0 must fail")
	}
	b = New()
	s = b.Source(&exec.SliceSource{SourceName: "s", Schema: testSchema})
	s.Parallel("p", 2, []string{"nope"}, func(ss Stream) Stream { return ss })
	if err := b.Err(); err == nil {
		t.Fatal("unknown key attribute must fail")
	}
	b = New()
	s = b.Source(&exec.SliceSource{SourceName: "s", Schema: testSchema})
	n := 0
	s.Parallel("p", 2, []string{"segment"}, func(ss Stream) Stream {
		// Replicas that diverge in schema must fail.
		n++
		if n == 1 {
			return ss
		}
		return ss.Project("narrow", "segment")
	})
	if err := b.Err(); err == nil {
		t.Fatal("replica schema divergence must fail")
	}
}

// TestQueryPartitionBy parses the new §3.3 clause and checks the
// partitioned query agrees with its unpartitioned form.
func TestQueryPartitionBy(t *testing.T) {
	workload := []stream.Tuple{
		reading(1, 10, 40), reading(1, 20, 60), reading(2, 30, 30), reading(3, 40, 80),
	}
	run := func(q string) []string {
		t.Helper()
		cat := Catalog{"traffic": testSource("traffic", workload...)}
		b, s, err := Parse(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		sink := s.Collect("sink")
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		return sink.Lines()
	}
	base := run("SELECT segment, AVG(speed) AS mean FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts")
	part := run("SELECT segment, AVG(speed) AS mean FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts PARTITION BY segment INTO 3")
	if len(base) == 0 || len(part) != len(base) {
		t.Fatalf("partitioned query: got %v, want %v", part, base)
	}
	for i := range base {
		if part[i] != base[i] {
			t.Fatalf("partitioned query diverged: got %v, want %v", part, base)
		}
	}
}

func TestQueryPartitionByErrors(t *testing.T) {
	cat := Catalog{"s": testSource("s")}
	bad := []string{
		// Partition key outside GROUP BY: grouped state would straddle
		// partitions.
		"SELECT segment, AVG(speed) FROM s GROUP BY segment WINDOW 1 MINUTE ON ts PARTITION BY speed INTO 2",
		"SELECT segment, AVG(speed) FROM s GROUP BY segment WINDOW 1 MINUTE ON ts PARTITION BY segment INTO 0",
		"SELECT segment, AVG(speed) FROM s GROUP BY segment WINDOW 1 MINUTE ON ts PARTITION BY segment INTO banana",
		"SELECT segment, AVG(speed) FROM s GROUP BY segment WINDOW 1 MINUTE ON ts PARTITION segment INTO 2",
	}
	for _, q := range bad {
		if _, _, err := Parse(q, cat); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

// endlessSource produces traffic until shut down, exploiting assumed
// feedback at the source — the strongest possible exploitation, reachable
// here only if feedback crosses both exchange boundaries.
type endlessSource struct {
	schema  stream.Schema
	ts      int64
	i       int64
	guards  *core.GuardTable
	skipped int64
}

func (s *endlessSource) Name() string                { return "endless" }
func (s *endlessSource) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *endlessSource) Close(exec.Context) error    { return nil }
func (s *endlessSource) Open(exec.Context) error {
	s.guards = core.NewGuardTable(s.schema.Arity())
	return nil
}

func (s *endlessSource) Next(ctx exec.Context) (bool, error) {
	for j := 0; j < 64; j++ {
		s.i++
		s.ts += 500
		t := reading(s.i%9, s.ts, 55)
		if s.guards.Suppress(t) {
			s.skipped++
			continue
		}
		ctx.Emit(t)
	}
	return true, nil
}

func (s *endlessSource) ProcessFeedback(_ int, f core.Feedback, _ exec.Context) error {
	if f.Intent == core.Assumed {
		s.guards.Install(f)
	}
	return nil
}

// decidingSink asserts ¬[segment=2] after 10 tuples, then waits for the
// suppression to take effect end-to-end before shutting the plan down.
type decidingSink struct {
	exec.Base
	schema    stream.Schema
	seen      int64
	sent      bool
	sinceSeg2 int64
	ok        bool
	done      bool
}

func (d *decidingSink) Name() string                { return "decider" }
func (d *decidingSink) InSchemas() []stream.Schema  { return []stream.Schema{d.schema} }
func (d *decidingSink) OutSchemas() []stream.Schema { return nil }

func (d *decidingSink) ProcessTuple(_ int, t stream.Tuple, ctx exec.Context) error {
	d.seen++
	if !d.sent && d.seen >= 10 {
		d.sent = true
		ctx.SendFeedback(0, core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(2)))))
	}
	if !d.sent || d.done {
		return nil
	}
	if t.At(0).AsInt() == 2 {
		d.sinceSeg2 = 0
	} else {
		d.sinceSeg2++
	}
	// 20k consecutive non-segment-2 tuples: the guard reached the source
	// (in-flight segment-2 tuples drain long before that). The 4M cap
	// bounds the run if propagation is broken.
	if d.sinceSeg2 >= 20_000 || d.seen >= 4_000_000 {
		d.done = true
		d.ok = d.sinceSeg2 >= 20_000
		ctx.ShutdownUpstream(0)
	}
	return nil
}

// TestParallelFeedbackReachesSource runs sink feedback across merge →
// replicas → split → source: the merge fans it to every partition, the
// replica filters relay it, and the split — seeing a pattern that pins
// the partition key — forwards it upstream to the true producer.
func TestParallelFeedbackReachesSource(t *testing.T) {
	b := New()
	src := &endlessSource{schema: testSchema}
	out := b.Source(src).Parallel("p", 3, []string{"segment"}, func(ss Stream) Stream {
		return ss.Select("pass", func(stream.Tuple) bool { return true })
	})
	sink := &decidingSink{schema: testSchema}
	out.Into(sink)
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if !sink.ok {
		t.Fatalf("segment-2 tuples kept arriving after feedback (seen=%d, skipped at source=%d)",
			sink.seen, src.skipped)
	}
	if src.skipped == 0 {
		t.Fatal("feedback never installed a guard at the source")
	}
}
