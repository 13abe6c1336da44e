package op

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/testguard"
)

// rebuild copies every run it is handed into one recycled slab (exec.Slab),
// as the engine's run-building sites do: what arrives downstream of it lives
// in memory that is overwritten once the pages carrying it are released.
type rebuild struct {
	exec.Base
	schema stream.Schema
	run    []stream.Tuple
}

func (r *rebuild) Name() string                { return "rebuild" }
func (r *rebuild) InSchemas() []stream.Schema  { return []stream.Schema{r.schema} }
func (r *rebuild) OutSchemas() []stream.Schema { return []stream.Schema{r.schema} }
func (r *rebuild) ProcessTuple(in int, t stream.Tuple, ctx exec.Context) error {
	return r.ProcessTupleBatch(in, []queue.Item{queue.TupleItem(t)}, ctx)
}
func (r *rebuild) ProcessTupleBatch(_ int, items []queue.Item, ctx exec.Context) error {
	k := r.schema.Arity()
	slab := exec.Slab(ctx, len(items)*k)
	r.run = r.run[:0]
	for i := range items {
		vals := slab[i*k : (i+1)*k : (i+1)*k]
		copy(vals, items[i].Tuple.Values)
		r.run = append(r.run, stream.Tuple{Values: vals, Seq: items[i].Tuple.Seq})
	}
	ctx.EmitBatch(r.run)
	return nil
}

// heldSource emits nothing until released, then everything. running is set
// by its first Next: the plan is wired and its edges may be read.
type heldSource struct {
	schema           stream.Schema
	tuples           []stream.Tuple
	running, release atomic.Bool
}

func (s *heldSource) Name() string                                           { return "held" }
func (s *heldSource) OutSchemas() []stream.Schema                            { return []stream.Schema{s.schema} }
func (s *heldSource) Open(exec.Context) error                                { return nil }
func (s *heldSource) Close(exec.Context) error                               { return nil }
func (s *heldSource) ProcessFeedback(int, core.Feedback, exec.Context) error { return nil }
func (s *heldSource) Next(ctx exec.Context) (bool, error) {
	s.running.Store(true)
	if !s.release.Load() {
		runtime.Gosched()
		return true, nil
	}
	ctx.EmitBatch(s.tuples)
	return false, nil
}

// TestJoinRetainsBuildSideAfterSlabRecycled: the build side's tuples arrive in
// recycled slabs and their partners arrive only after those slabs have been
// rebuilt many times over by the tuples that followed. The store keeps copies
// of its own, so every joined result still carries the values its left tuple
// arrived with.
func TestJoinRetainsBuildSideAfterSlabRecycled(t *testing.T) {
	const nBuild, nFiller = 300, 6000
	var left []stream.Tuple
	for i := int64(0); i < nBuild; i++ {
		left = append(left, probe(i, 100, float64(i)+0.5))
	}
	for i := int64(0); i < nFiller; i++ { // partnerless: they only cycle the slabs
		left = append(left, probe(1_000_000+i, 100, -1))
	}
	right := &heldSource{schema: sensorSchema}
	for i := int64(0); i < nBuild; i++ {
		right.tuples = append(right.tuples, sensor(i, 100, float64(i)+0.25))
	}
	j := newTestJoin(FeedbackIgnore, false)
	g := exec.NewGraph()
	built := g.Add(&rebuild{schema: probeSchema}, exec.From(g.AddSource(exec.NewSliceSource("left", probeSchema, left...))))
	sink := exec.NewCollector("sink", j.OutSchemas()[0])
	g.Add(sink, exec.From(g.Add(j, exec.From(built), exec.From(g.AddSource(right)))))

	testguard.Within(t, time.Minute, func() {
		runErr := make(chan error, 1)
		go func() { runErr <- g.Run() }()
		for !right.running.Load() {
			runtime.Gosched()
		}
		// The whole left input is in the store, its pages released.
		for fed := (exec.EdgeInfo{}); fed.Stats.Tuples < nBuild+nFiller || fed.Depth > 0; runtime.Gosched() {
			for _, e := range g.Edges() {
				if e.Producer == "rebuild" {
					fed = e
				}
			}
		}
		right.release.Store(true)
		if err := <-runErr; err != nil {
			t.Fatal(err)
		}
	})
	got := sink.Tuples()
	if len(got) != nBuild {
		t.Fatalf("%d joined results, want %d", len(got), nBuild)
	}
	for i, tp := range got {
		want := stream.NewTuple(stream.Int(int64(i)), stream.TimeMicros(100), stream.Float(float64(i)+0.5), stream.Float(float64(i)+0.25))
		if !slices.EqualFunc(tp.Values, want.Values, stream.Value.Equal) {
			t.Fatalf("result %d is %v, want %v: the build side did not keep its own values", i, tp, want)
		}
	}
}

// TestPrioritizeRetainsPendingAfterSlabRecycled: a tuple waits in the reorder
// buffer for as many arrivals as the buffer holds, long after its page and
// slab were given back; it leaves as it came.
func TestPrioritizeRetainsPendingAfterSlabRecycled(t *testing.T) {
	const n = 8000
	in := make([]stream.Tuple, n)
	for i := range in {
		in[i] = probe(int64(i), int64(i), float64(i)).WithSeq(int64(i))
	}
	g := exec.NewGraph()
	built := g.Add(&rebuild{schema: probeSchema}, exec.From(g.AddSource(exec.NewSliceSource("src", probeSchema, in...))))
	sink := exec.NewCollector("sink", probeSchema)
	g.Add(sink, exec.From(g.Add(&Prioritize{Schema: probeSchema, Mode: FeedbackIgnore}, exec.From(built))))
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != n {
		t.Fatalf("%d tuples out, want %d", len(got), n)
	}
	for i, tp := range got {
		if tp.Seq != int64(i) || !slices.EqualFunc(tp.Values, in[i].Values, stream.Value.Equal) {
			t.Fatalf("tuple %d left the buffer as %v (seq %d), want %v", i, tp, tp.Seq, in[i])
		}
	}
}
