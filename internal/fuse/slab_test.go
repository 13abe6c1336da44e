package fuse

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/testguard"
)

var (
	idSchema     = stream.MustSchema(stream.F("id", stream.KindInt))
	mappedSchema = stream.MustSchema(stream.F("id", stream.KindInt), stream.F("b", stream.KindInt),
		stream.F("c", stream.KindFloat), stream.F("s", stream.KindString))
)

// mappingKernel rebuilds <id> as <id, 3id+1, id/2, "s"+id>: every value of an
// output tuple follows from its id, so a sink can tell a tuple that is whole
// from one whose slab was rebuilt under it, whatever route it came by.
func mappingKernel(t testing.TB) *Fused {
	k, err := New([]exec.Operator{&op.Map{OpName: "widen", In: idSchema, Outs: []op.MapAttr{
		op.Carry("id"),
		op.Compute("b", stream.KindInt, func(t stream.Tuple) stream.Value { return stream.Int(3*t.At(0).I + 1) }),
		op.Compute("c", stream.KindFloat, func(t stream.Tuple) stream.Value { return stream.Float(float64(t.At(0).I) / 2) }),
		op.Compute("s", stream.KindString, func(t stream.Tuple) stream.Value {
			return stream.String_("s" + strconv.FormatInt(t.At(0).I, 10))
		}),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func whole(t stream.Tuple) bool {
	id := t.At(0)
	return len(t.Values) == 4 && id.Kind == stream.KindInt && t.Seq == id.I &&
		t.At(1) == stream.Int(3*id.I+1) && t.At(2) == stream.Float(float64(id.I)/2) &&
		t.At(3) == stream.String_("s"+strconv.FormatInt(id.I, 10))
}

// oracleSink checks every tuple as it arrives and keeps a clone of it.
type oracleSink struct {
	exec.Base
	name   string
	want   []int64 // ids the routing model sends here, sorted
	broken []string
	kept   []stream.Tuple
}

func (s *oracleSink) Name() string                { return s.name }
func (s *oracleSink) InSchemas() []stream.Schema  { return []stream.Schema{mappedSchema} }
func (s *oracleSink) OutSchemas() []stream.Schema { return nil }
func (s *oracleSink) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	if !whole(t) && len(s.broken) < 3 {
		s.broken = append(s.broken, t.String())
	}
	s.kept = append(s.kept, t.Clone())
	return nil
}

// routing grows a random DAG of routing operators — none of which copies a
// tuple — under one output port, and models which ids reach which sink.
type routing struct {
	g      *exec.Graph
	rng    *rand.Rand
	sinks  []*oracleSink
	budget int
}

func (r *routing) name(kind string) string { return kind + strconv.Itoa(r.budget) }

func (r *routing) grow(from exec.Port, ids []int64, depth int) {
	r.budget--
	choice := r.rng.Intn(6)
	if depth >= 4 || r.budget <= 0 {
		choice = 0
	}
	switch choice {
	case 0:
		s := &oracleSink{name: r.name("sink"), want: slices.Sorted(slices.Values(ids))}
		r.sinks = append(r.sinks, s)
		r.g.Add(s, from)
	case 1: // select
		m := int64(2 + r.rng.Intn(4))
		sel := r.g.Add(&op.Select{OpName: r.name("sel"), Schema: mappedSchema,
			Cond: func(t stream.Tuple) bool { return t.At(0).I%m != 0 }}, from)
		r.grow(exec.From(sel), filter(ids, func(id int64) bool { return id%m != 0 }), depth+1)
	case 2: // duplicate into two subtrees
		d := r.g.Add(&op.Duplicate{OpName: r.name("dup"), Schema: mappedSchema, N: 2}, from)
		r.grow(exec.FromPort(d, 0), ids, depth+1)
		r.grow(exec.FromPort(d, 1), ids, depth+1)
	case 3: // split into two subtrees
		s, parts := r.split(from, ids)
		r.grow(exec.FromPort(s, 0), parts[0], depth+1)
		r.grow(exec.FromPort(s, 1), parts[1], depth+1)
	case 4: // split, thin one partition, merge back
		s, parts := r.split(from, ids)
		m := int64(2 + r.rng.Intn(3))
		sel := r.g.Add(&op.Select{OpName: r.name("psel"), Schema: mappedSchema,
			Cond: func(t stream.Tuple) bool { return t.At(0).I%m == 0 }}, exec.FromPort(s, 0))
		merged := r.g.Add(&op.Merge{OpName: r.name("merge"), Schema: mappedSchema, K: 2}, exec.From(sel), exec.FromPort(s, 1))
		r.grow(exec.From(merged), append(filter(parts[0], func(id int64) bool { return id%m == 0 }), parts[1]...), depth+1)
	case 5: // duplicate, union back: every tuple twice, from one slab
		d := r.g.Add(&op.Duplicate{OpName: r.name("fan"), Schema: mappedSchema, N: 2}, from)
		u := r.g.Add(&op.Merge{OpName: r.name("union"), Schema: mappedSchema, K: 2},
			exec.FromPort(d, 0), exec.FromPort(d, 1))
		r.grow(exec.From(u), append(slices.Clone(ids), ids...), depth+1)
	}
}

func (r *routing) split(from exec.Port, ids []int64) (exec.NodeID, [2][]int64) {
	s := r.g.Add(&op.Split{OpName: r.name("split"), Schema: mappedSchema, N: 2, Key: []int{0}}, from)
	var parts [2][]int64
	for _, id := range ids {
		d := stream.NewTuple(stream.Int(id)).Hash([]int{0}) % 2
		parts[d] = append(parts[d], id)
	}
	return s, parts
}

func filter(ids []int64, keep func(int64) bool) []int64 {
	var out []int64
	for _, id := range ids {
		if keep(id) {
			out = append(out, id)
		}
	}
	return out
}

// TestSlabOutlivesEveryAdoptingPage: below a mapping kernel, whose every run
// is built in a recycled slab, tuples fan out by header through random DAGs of
// select, duplicate, split, merge and union to sinks that consume at their own
// pace. Small pages and shallow rings turn pages in the middle of activations,
// punctuation flushes them half full, and one slab's tuples end up on many
// pages of many edges, released in any order on 1, 2 or 4 processors. Every
// tuple must be whole when it reaches a sink — its slab not yet rebuilt by a
// later run — every sink must receive exactly the ids the routing sends it,
// and the clones the sinks kept must be whole when everything is over.
func TestSlabOutlivesEveryAdoptingPage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		procs := []int{1, 2, 4}[seed%3]
		runtime.GOMAXPROCS(procs)
		opts := queue.Options{PageSize: 3 + rng.Intn(30), Depth: 1 + rng.Intn(3)}
		n := 2000 + rng.Intn(3000)
		src := &exec.SliceSource{SourceName: "ids", Schema: idSchema, BatchSize: 1 + rng.Intn(100)}
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
			src.Items = append(src.Items, queue.TupleItem(stream.NewTuple(stream.Int(int64(i))).WithSeq(int64(i))))
			if rng.Intn(150) == 0 {
				src.Items = append(src.Items, queue.PunctItem(punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(int64(i)))))))
			}
		}
		g := exec.NewGraph()
		g.SetQueueOptions(opts)
		r := &routing{g: g, rng: rng, budget: 12}
		r.grow(exec.From(g.Add(mappingKernel(t), exec.From(g.AddSource(src)))), ids, 0)
		testguard.Within(t, time.Minute, func() {
			if err := g.Run(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
		when := fmt.Sprintf("seed %d (%d procs, pages of %d, rings of %d, %d sinks)", seed, procs, opts.PageSize, opts.Depth, len(r.sinks))
		for _, s := range r.sinks {
			if len(s.broken) > 0 {
				t.Errorf("%s: %s received tuples whose slab had been recycled: %v", when, s.name, s.broken)
			}
			got := make([]int64, len(s.kept))
			for i, tp := range s.kept {
				if !whole(tp) {
					t.Fatalf("%s: %s: clone %v is not whole after the run", when, s.name, tp)
				}
				got[i] = tp.At(0).I
			}
			slices.Sort(got)
			if !slices.Equal(got, s.want) {
				t.Errorf("%s: %s received %d tuples, the routing sends it %d", when, s.name, len(got), len(s.want))
			}
		}
	}
}

// TestCompiledPlanRecyclesSlabs: a select→project→map kernel between a source
// of pre-built tuples and a counting sink rebuilds four tuples in five, 120
// bytes of values per input tuple — and in steady state allocates none of
// them: every run's slab is one a released page just gave back.
func TestCompiledPlanRecyclesSlabs(t *testing.T) {
	const n = 200_000
	in := make([]stream.Tuple, n)
	for i := range in {
		in[i] = stream.NewTuple(stream.Int(int64(i%5)), stream.Int(7), stream.TimeMicros(int64(i)*1000), stream.Float(55))
	}
	run := func() {
		g := exec.NewGraph()
		sink := exec.NewCollector("sink", mappingChain(t).OutSchemas()[0])
		sink.Discard = true
		src := exec.NewSliceSource("src", chainSchema, in...)
		src.BatchSize = 256
		g.Add(sink, exec.From(g.Add(mappingChain(t), exec.From(g.AddSource(src)))))
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		if sink.Count() != n/5*4 {
			t.Fatalf("%d results, want %d", sink.Count(), n/5*4)
		}
	}
	run() // warm-up: pages and slabs are in their pools
	var before, after runtime.MemStats
	gets0, misses0 := queue.SlabStats()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	gets, misses := queue.SlabStats()
	gets, misses = gets-gets0, misses-misses0
	perTuple := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.2f bytes allocated per input tuple; %d slab requests, %d missed the pool", perTuple, gets, misses)
	// Under the race detector sync.Pool drops a quarter of what is put back,
	// pages and slabs alike: only "most requests are served" holds there.
	limit, missLimit := 6.0, gets/20
	if raceBuild {
		limit, missLimit = 120, gets/2
	}
	if perTuple > limit || misses > missLimit {
		t.Errorf("the plan allocates %.1f bytes per input tuple (limit %.0f) and %d of %d slab requests missed the pool (limit %d): slabs are not recycled",
			perTuple, limit, misses, gets, missLimit)
	}
}
