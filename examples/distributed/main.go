// Distributed crash-and-recover: a consistent cut across a machine
// boundary.
//
// The paper's case for localized coordination (§2) is the distributed
// setting: control information travels hop by hop between adjacent
// operators, never through a centralized monitor. This example applies the
// same principle to fault tolerance. A query plan is split across a real
// TCP connection:
//
//	process A (here: goroutine):  traffic source → filter → RemoteSink ══╗
//	process B (here: goroutine):  RemoteSource → avg-by-segment → sink   ║
//	     barriers:  A's sources → ... → RemoteSink ═(TCP)═ RemoteSource → ...
//	     acks/commits:  B ═(control conn)═ A
//
// Process A coordinates: every checkpoint epoch injects barriers at its
// sources, and the RemoteSink forwards the barrier in-band after the
// tuples that precede the cut. Process B's RemoteSource hands the wire
// barrier to its local coordination glue, which cuts B's subplan at the
// same epoch. Each side persists its own chain; A commits a distributed
// manifest only after B's ack. Mid-stream, BOTH processes are killed; the
// rebuilt pair restores from the last committed manifest and finishes. The
// recovered output is canonically identical to an uninterrupted run — the
// epoch that was in flight at the crash was simply abandoned.
//
// Run with: go run ./examples/distributed
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// pacedSource replays a fixed item sequence at a trickle, so checkpoint
// epochs land mid-stream; its snapshot state is the replay position.
type pacedSource struct {
	exec.Base
	items []queue.Item
	pos   atomic.Int64
}

func (s *pacedSource) Name() string                { return "traffic" }
func (s *pacedSource) OutSchemas() []stream.Schema { return []stream.Schema{gen.TrafficSchema} }

func (s *pacedSource) Next(ctx exec.Context) (bool, error) {
	pos := int(s.pos.Load())
	if pos >= len(s.items) {
		return false, nil
	}
	for n := 0; n < 8 && pos < len(s.items); n++ {
		switch it := s.items[pos]; it.Kind {
		case queue.ItemTuple:
			ctx.Emit(it.Tuple)
		case queue.ItemPunct:
			ctx.EmitPunct(*it.Punct)
		}
		pos++
	}
	s.pos.Store(int64(pos))
	time.Sleep(100 * time.Microsecond)
	return true, nil
}

// CaptureState implements snapshot.Stater: the replay position is the state.
func (s *pacedSource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos.Load()
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(pos)
		return nil
	}}, nil
}

// LoadState implements snapshot.Stater.
func (s *pacedSource) LoadState(dec *snapshot.Decoder) error {
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
			items = append(items, queue.PunctItem(punct.NewEmbedded(
				punct.OnAttr(gen.TrafficSchema.Arity(), 2, punct.Le(stream.TimeMicros(ts-1))))))
		}
	}
	return items
}

// stores is the pair's "durable storage", surviving crashes within this
// process: one chain per subplan plus the coordinator's manifest log.
type stores struct {
	coord, follow *snapshot.Chain
	log           *snapshot.DistLog
}

func newStores() *stores {
	coordBackend := snapshot.NewMemory()
	return &stores{
		coord:  snapshot.NewChain(coordBackend),
		follow: snapshot.NewChain(snapshot.NewMemory()),
		log:    snapshot.NewDistLog(coordBackend),
	}
}

// runPair runs one incarnation of the two-subplan plan. If kill is
// non-nil, both graphs are killed once it fires (reporting killed=true);
// otherwise the pair runs to completion and the follower's canonical
// results are returned.
func runPair(items []queue.Item, st *stores, kill func(log *snapshot.DistLog) bool) (results []string, committed int64, killed bool, err error) {
	// Data crosses real TCP; the control connection is an in-process pipe
	// (a second TCP conn in the two-process deployment, cmd/supervise -dist).
	addr, accept, err := remote.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, false, err
	}
	ctrlA, ctrlB := net.Pipe()
	defer ctrlA.Close()
	defer ctrlB.Close()

	var (
		wg        sync.WaitGroup
		followG   *exec.Graph
		coordErr  error
		followErr error
		sink      *exec.Collector
		followUp  = make(chan error, 1) // follower built + handshaken
	)

	// Process B: the follower subplan.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := accept()
		if err != nil {
			followUp <- err
			return
		}
		b := plan.New()
		out := b.RemoteSource("from-producer", gen.TrafficSchema, conn).
			Parallel("part", 2, []string{"segment"}, func(ss plan.Stream) plan.Stream {
				return ss.Through(&op.Aggregate{OpName: "avg", In: gen.TrafficSchema, Kind: core.AggAvg,
					TsAttr: 2, ValAttr: 3, GroupBy: []int{0}, Window: window.Tumbling(60_000_000),
					ValueName: "avg_speed", Mode: op.FeedbackExploit, Propagate: true})
			})
		sink = out.Collect("speedmap")
		df, err := b.DistFollow("consumer", st.follow, ctrlB)
		if err != nil {
			followUp <- err
			return
		}
		df.Retain = 4
		if _, err := df.Handshake(); err != nil {
			followUp <- err
			return
		}
		followG = b.Graph()
		followUp <- nil
		followErr = df.Run()
	}()

	// Process A: the coordinator subplan.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, false, err
	}
	b := plan.New()
	src := &pacedSource{items: items}
	rsink := b.Source(src).Select("filter", nil).IntoRemote("to-consumer", conn)
	rsink.WriteTimeout = 10 * time.Second
	dc, err := b.DistCoordinate("producer", st.coord, st.log)
	if err != nil {
		return nil, 0, false, err
	}
	dc.AckTimeout = 5 * time.Second
	if _, err := dc.RestoreCommitted(); err != nil {
		return nil, 0, false, err
	}
	if _, err := dc.AddFollower(ctrlA); err != nil {
		return nil, 0, false, err
	}
	coordG := b.Graph()
	if err := <-followUp; err != nil {
		return nil, 0, false, err
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		coordErr, _ = dc.RunCheckpointed(exec.CheckpointPolicy{
			Interval: 5 * time.Millisecond, Retain: 4,
		})
	}()

	if kill != nil {
		deadline := time.Now().Add(60 * time.Second)
		for !kill(st.log) {
			if time.Now().After(deadline) {
				coordG.Kill()
				if followG != nil {
					followG.Kill()
				}
				wg.Wait()
				return nil, 0, false, fmt.Errorf("kill condition not reached before deadline (run finished early?)")
			}
			time.Sleep(time.Millisecond)
		}
		coordG.Kill()
		if followG != nil {
			followG.Kill()
		}
		killed = true
	}
	wg.Wait()
	committed = dc.CommittedEpoch()
	if !killed {
		if coordErr != nil {
			return nil, committed, false, fmt.Errorf("producer: %w", coordErr)
		}
		if followErr != nil && !errors.Is(followErr, exec.ErrKilled) {
			return nil, committed, false, fmt.Errorf("consumer: %w", followErr)
		}
	}
	var lines []string
	if sink != nil {
		for _, t := range sink.Tuples() {
			lines = append(lines, t.String())
		}
		sort.Strings(lines)
	}
	return lines, committed, killed, nil
}

func main() {
	items := trafficItems(12_000)

	// --- Run 1: crash BOTH processes once two epochs are committed. ---
	st := newStores()
	_, committed, _, err := runPair(items, st, func(l *snapshot.DistLog) bool {
		m, ok, err := l.Latest()
		return err == nil && ok && m.Epoch >= 2
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash: both subplans killed mid-stream; last committed distributed epoch %d\n", committed)

	// --- Run 2: rebuild both subplans, restore from the committed cut. ---
	got, committed2, _, err := runPair(items, st, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: pair restored from epoch %d and completed (committed through %d, results: %d)\n",
		committed, committed2, len(got))

	// --- Reference: the same stream, uninterrupted, on fresh storage. ---
	want, _, _, err := runPair(items, newStores(), nil)
	if err != nil {
		log.Fatal(err)
	}
	if len(got) != len(want) {
		log.Fatalf("recovered pair produced %d results, uninterrupted %d (gap or duplication)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("result %d diverged: %s vs %s", i, got[i], want[i])
		}
	}
	fmt.Printf("verified: %d results canonically identical to an uninterrupted run (0 lost, 0 duplicated)\n", len(want))
}
