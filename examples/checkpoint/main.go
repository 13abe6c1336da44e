// Checkpoint & recovery: crash a running partitioned aggregate plan and
// resume it from a punctuation-aligned snapshot on disk.
//
// The plan is the speed-map core — traffic readings, hash-partitioned by
// segment across two aggregate replicas, merged back with punctuation
// alignment. Mid-stream, the plan's checkpoint coordinator — the one a plan
// spanning processes uses, here with no followers — injects barrier
// punctuations at the source; once every partition and the merge have
// aligned them, the consistent cut (per-operator accumulators, guard
// tables, the source's replay position, and the sink's record) is written
// to a file backend and committed. The plan is then killed — simulating a
// crash — and a freshly built plan restores the committed cut from the
// files and finishes the stream. The recovered output is identical to what
// an uninterrupted run produces.
//
// Run with: go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// pausableSource replays a traffic stream one batch per Next, parking at
// pauseAt until released — a stand-in for a live feed that keeps the plan
// running while the operator takes a checkpoint. Its snapshot state is the
// replay position, so recovery regenerates exactly the tuples behind the
// barrier.
type pausableSource struct {
	exec.Base
	items   []queue.Item
	pauseAt int
	release atomic.Bool
	pos     atomic.Int64
}

func (s *pausableSource) Name() string                { return "traffic" }
func (s *pausableSource) OutSchemas() []stream.Schema { return []stream.Schema{gen.TrafficSchema} }

func (s *pausableSource) Next(ctx exec.Context) (bool, error) {
	pos := int(s.pos.Load())
	if pos >= len(s.items) {
		return false, nil
	}
	for n := 0; n < 32; n++ {
		if pos >= len(s.items) {
			break
		}
		if pos == s.pauseAt && !s.release.Load() {
			time.Sleep(time.Millisecond)
			break
		}
		switch it := s.items[pos]; it.Kind {
		case queue.ItemTuple:
			ctx.Emit(it.Tuple)
		case queue.ItemPunct:
			ctx.EmitPunct(*it.Punct)
		}
		pos++
	}
	s.pos.Store(int64(pos))
	return true, nil
}

// CaptureState implements snapshot.Stater: the replay position is the state.
func (s *pausableSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos.Load()
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(pos)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *pausableSource) LoadState(dec *snapshot.Decoder) error {
	s.pos.Store(dec.GetInt64())
	return dec.Err()
}

// trafficItems builds a punctuated, ordered traffic stream.
func trafficItems(n int) []queue.Item {
	items := make([]queue.Item, 0, n+n/200)
	ts := int64(0)
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			ts += 250_000
		}
		items = append(items, queue.TupleItem(stream.NewTuple(
			stream.Int(int64(i%9)), stream.Int(int64(i%40)),
			stream.TimeMicros(ts), stream.Float(40+float64(i%30)))))
		if i%200 == 199 {
			items = append(items, queue.PunctItem(tsPunct(ts-1)))
		}
	}
	items = append(items, queue.PunctItem(tsPunct(ts)))
	return items
}

// tsPunct asserts stream progress on the timestamp attribute.
func tsPunct(tsUS int64) punct.Embedded {
	return punct.NewEmbedded(punct.OnAttr(gen.TrafficSchema.Arity(), 2, punct.Le(stream.TimeMicros(tsUS))))
}

func buildPlan(src *pausableSource) (*plan.Builder, *exec.Collector) {
	b := plan.New()
	out := b.Source(src).Parallel("part", 2, []string{"segment"}, func(ss plan.Stream) plan.Stream {
		return ss.Through(&op.Aggregate{OpName: "avg", In: gen.TrafficSchema, Kind: core.AggAvg,
			TsAttr: 2, ValAttr: 3, GroupBy: []int{0}, Window: window.Tumbling(60_000_000),
			ValueName: "avg_speed", Mode: op.FeedbackExploit, Propagate: true})
	})
	sink := out.Collect("speedmap")
	return b, sink
}

func canonical(c *exec.Collector) []string {
	var lines []string
	for _, t := range c.Tuples() {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	return lines
}

func main() {
	const tuples = 20_000
	items := trafficItems(tuples)
	pauseAt := len(items) / 2

	dir, err := os.MkdirTemp("", "speedmap-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	backend, err := snapshot.NewDir(dir)
	if err != nil {
		log.Fatal(err)
	}

	// --- Run 1: stream half the data, checkpoint, crash. ---
	src1 := &pausableSource{items: items, pauseAt: pauseAt}
	b1, sink1 := buildPlan(src1)
	runErr := make(chan error, 1)
	go func() { runErr <- b1.Run() }()
	for src1.pos.Load() < int64(pauseAt) {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	chain := snapshot.NewChain(backend)
	dc1, err := b1.DistCoordinate("speedmap", chain, snapshot.NewDistLog(backend))
	if err != nil {
		log.Fatal(err)
	}
	epoch, err := dc1.CheckpointOnce(snapshot.CaptureFull)
	if err != nil {
		log.Fatal(err)
	}
	took := time.Since(start)
	snap, err := chain.ChainFor(epoch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: epoch %d, %d nodes, %d bytes, took %v (results so far: %d)\n",
		snap.Epoch, len(snap.Nodes), snap.Size(), took.Round(time.Microsecond), sink1.Count())

	b1.Graph().Kill()
	<-runErr // ErrKilled: the crash
	fmt.Printf("crash: plan killed mid-stream at item %d/%d\n", src1.pos.Load(), len(items))

	// --- Run 2: rebuild, restore from disk, finish the stream. ---
	src2 := &pausableSource{items: items, pauseAt: pauseAt}
	src2.release.Store(true)
	b2, sink2 := buildPlan(src2)
	start = time.Now()
	dc2, err := b2.DistCoordinate("speedmap", snapshot.NewChain(backend), snapshot.NewDistLog(backend))
	if err != nil {
		log.Fatal(err)
	}
	if ok, err := dc2.RestoreCommitted(); err != nil || !ok {
		log.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	if err := b2.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: restored and finished in %v (final results: %d)\n",
		time.Since(start).Round(time.Microsecond), sink2.Count())

	// --- Reference: the same stream uninterrupted. ---
	ref := &pausableSource{items: items, pauseAt: pauseAt}
	ref.release.Store(true)
	bRef, sinkRef := buildPlan(ref)
	if err := bRef.Run(); err != nil {
		log.Fatal(err)
	}

	got, want := canonical(sink2), canonical(sinkRef)
	if len(got) != len(want) {
		log.Fatalf("recovered run produced %d results, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("result %d diverged: %s vs %s", i, got[i], want[i])
		}
	}
	fmt.Printf("verified: %d results canonically identical to an uninterrupted run (0 lost, 0 duplicated)\n", len(want))
}
