package plan

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/snapshot"
	"repro/internal/window"
)

// distStores is the "durable storage" of a coordinator/follower pair,
// surviving in-process crashes: one chain per subplan plus the manifest log
// (sharing the coordinator's backend, as cmd/supervise does).
type distStores struct {
	coord, follow *snapshot.Chain
	log           *snapshot.DistLog
}

func newDistStores() *distStores {
	cb := snapshot.NewMemory()
	return &distStores{
		coord:  snapshot.NewChain(cb),
		follow: snapshot.NewChain(snapshot.NewMemory()),
		log:    snapshot.NewDistLog(cb),
	}
}

// runDistPair runs one incarnation of the two-subplan plan end to end:
// producer (paced source → remote sink, coordinator) and consumer (remote
// source → Parallel(2) aggregate → collector, follower) over TCP loopback
// plus a control pipe, both restored from the committed cut before the
// graphs start. killWhen (nil = run to
// completion) is polled; when it returns true both graphs are killed.
// Returns the follower's canonical results and the committed epoch.
func runDistPair(t *testing.T, items []queue.Item, st *distStores, killWhen func() bool) (results []string, committed int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrlA, ctrlB := net.Pipe()
	defer ctrlA.Close()
	defer ctrlB.Close()

	var (
		wg        sync.WaitGroup
		followG   *exec.Graph
		followErr error
		sink      *exec.Collector
		followUp  = make(chan error, 1)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		l.Close()
		if err != nil {
			followUp <- err
			return
		}
		b := New()
		out := b.RemoteSource("from-producer", testSchema, conn).
			Parallel("p", 2, []string{"segment"}, func(ss Stream) Stream {
				return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
					window.Tumbling(1_000_000), "avg_speed")
			})
		sink = out.Collect("sink")
		df, err := b.DistFollow("consumer", st.follow, ctrlB)
		if err != nil {
			followUp <- err
			return
		}
		df.Retain = 3
		if _, err := df.Handshake(); err != nil {
			followUp <- err
			return
		}
		followG = b.Graph()
		followUp <- nil
		followErr = df.Run()
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := New()
	src := &pacedItems{name: "src", schema: testSchema, items: items}
	rsink := b.Source(src).IntoRemote("to-consumer", conn)
	rsink.WriteTimeout = 30 * time.Second
	dc, err := b.DistCoordinate("producer", st.coord, st.log)
	if err != nil {
		t.Fatal(err)
	}
	dc.AckTimeout = 10 * time.Second
	if _, err := dc.RestoreCommitted(); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.AddFollower(ctrlA); err != nil {
		t.Fatal(err)
	}
	coordG := b.Graph()
	if err := <-followUp; err != nil {
		t.Fatal(err)
	}

	var coordErr, chkErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		coordErr, chkErr = dc.RunCheckpointed(exec.CheckpointPolicy{
			Interval: 10 * time.Millisecond, Retain: 3,
		})
	}()

	killed := false
	if killWhen != nil {
		deadline := time.Now().Add(30 * time.Second)
		for !killWhen() {
			if time.Now().After(deadline) {
				t.Fatal("kill condition never reached")
			}
			time.Sleep(time.Millisecond)
		}
		coordG.Kill()
		followG.Kill()
		killed = true
	}
	wg.Wait()
	if killed {
		if !errors.Is(coordErr, exec.ErrKilled) {
			t.Fatalf("killed coordinator returned %v", coordErr)
		}
	} else {
		if coordErr != nil {
			t.Fatalf("producer: %v", coordErr)
		}
		if followErr != nil {
			t.Fatalf("consumer: %v", followErr)
		}
		// Tail-of-run abandons (an epoch triggered as the stream ended) are
		// tolerated; anything else is a coordination fault.
		if chkErr != nil && !strings.Contains(chkErr.Error(), "abandoned") {
			t.Fatalf("checkpointing: %v", chkErr)
		}
	}
	for _, tp := range sink.Tuples() {
		results = append(results, tp.String())
	}
	sort.Strings(results)
	return results, dc.CommittedEpoch()
}

// TestDistCheckpointKillRestore is the cross-process acceptance test: a
// plan spanning two graphs joined by a TCP edge runs under distributed
// checkpoints; both "processes" are killed mid-epoch; the rebuilt pair
// restores from the last committed distributed manifest and completes. The
// final canonical result set must be identical to an uninterrupted run's —
// the in-flight epoch was abandoned, not half-applied.
func TestDistCheckpointKillRestore(t *testing.T) {
	items := aggWorkload(6000)

	// Uninterrupted reference on fresh storage.
	want, _ := runDistPair(t, items, newDistStores(), nil)
	if len(want) == 0 {
		t.Fatal("workload produced no results")
	}

	// Crash both subplans once two distributed epochs are committed.
	st := newDistStores()
	_, committedAtKill := runDistPair(t, items, st, func() bool {
		m, ok, err := st.log.Latest()
		if err != nil {
			t.Error(err)
			return true
		}
		return ok && m.Epoch >= 2
	})
	if committedAtKill < 2 {
		t.Fatalf("killed with only %d committed epochs", committedAtKill)
	}
	// Both chains may hold epochs past the committed manifest (persisted
	// but never globally acknowledged); restore must discard them.
	got, _ := runDistPair(t, items, st, nil)

	if len(got) != len(want) {
		t.Fatalf("recovered pair produced %d results, uninterrupted %d (gap or duplication)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d diverged after recovery: %s vs %s", i, got[i], want[i])
		}
	}
}

// failingBackend refuses every write — the follower whose disk died.
type failingBackend struct{ *snapshot.Memory }

func (f failingBackend) Put(string, []byte) error {
	return fmt.Errorf("disk full")
}

// TestDistAbandonOnFollowerFailure: a follower that cannot persist acks
// with an error; the coordinator must abandon every epoch (no manifest
// commits) while the stream itself still completes correctly.
func TestDistAbandonOnFollowerFailure(t *testing.T) {
	items := aggWorkload(2000)
	st := newDistStores()
	st.follow = snapshot.NewChain(failingBackend{snapshot.NewMemory()})

	results, committed := runDistPairTolerant(t, items, st)
	if committed != 0 {
		t.Fatalf("coordinator committed epoch %d despite follower persist failures", committed)
	}
	if m, ok, _ := st.log.Latest(); ok {
		t.Fatalf("manifest %d committed despite follower persist failures", m.Epoch)
	}
	if len(results) == 0 {
		t.Fatal("checkpoint failures must not stop the stream")
	}
}

// runDistPairTolerant is runDistPair for runs where every epoch is expected
// to fail: checkpoint errors are required rather than fatal.
func runDistPairTolerant(t *testing.T, items []queue.Item, st *distStores) (results []string, committed int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrlA, ctrlB := net.Pipe()
	defer ctrlA.Close()
	defer ctrlB.Close()

	var (
		wg        sync.WaitGroup
		followErr error
		sink      *exec.Collector
		followUp  = make(chan error, 1)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		l.Close()
		if err != nil {
			followUp <- err
			return
		}
		b := New()
		out := b.RemoteSource("from-producer", testSchema, conn).
			Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(1_000_000), "avg_speed")
		sink = out.Collect("sink")
		df, err := b.DistFollow("consumer", st.follow, ctrlB)
		if err != nil {
			followUp <- err
			return
		}
		if _, err := df.Handshake(); err != nil {
			followUp <- err
			return
		}
		followUp <- nil
		followErr = df.Run()
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := New()
	src := &pacedItems{name: "src", schema: testSchema, items: items}
	b.Source(src).IntoRemote("to-consumer", conn)
	dc, err := b.DistCoordinate("producer", st.coord, st.log)
	if err != nil {
		t.Fatal(err)
	}
	dc.AckTimeout = 10 * time.Second
	if _, err := dc.RestoreCommitted(); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.AddFollower(ctrlA); err != nil {
		t.Fatal(err)
	}
	if err := <-followUp; err != nil {
		t.Fatal(err)
	}
	var coordErr, chkErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		coordErr, chkErr = dc.RunCheckpointed(exec.CheckpointPolicy{Interval: 10 * time.Millisecond})
	}()
	wg.Wait()
	if coordErr != nil {
		t.Fatalf("producer: %v", coordErr)
	}
	if followErr != nil {
		t.Fatalf("consumer: %v", followErr)
	}
	if chkErr == nil || !strings.Contains(chkErr.Error(), "abandoned") {
		t.Fatalf("expected abandoned epochs, got %v", chkErr)
	}
	for _, tp := range sink.Tuples() {
		results = append(results, tp.String())
	}
	sort.Strings(results)
	return results, dc.CommittedEpoch()
}

// TestDistAckTimeoutAbandons: a follower that never acks (its subplan has
// no remote source, so no barrier ever reaches it) trips the coordinator's
// ack timeout and the epoch is abandoned rather than committed or hung.
func TestDistAckTimeoutAbandons(t *testing.T) {
	ctrlA, ctrlB := net.Pipe()
	defer ctrlA.Close()
	defer ctrlB.Close()

	st := newDistStores()
	// Follower: a local-source subplan that parks mid-stream, handshaken
	// over the control pipe but structurally unable to see barriers.
	fitems := aggWorkload(4000)
	fb := New()
	fsrc := &pacedItems{name: "fsrc", schema: testSchema, items: fitems}
	fb.Source(fsrc).Collect("fsink")
	df, err := fb.DistFollow("consumer", st.follow, ctrlB)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator: its own paced subplan.
	b := New()
	src := &pacedItems{name: "src", schema: testSchema, items: aggWorkload(4000)}
	b.Source(src).Collect("sink")
	dc, err := b.DistCoordinate("producer", st.coord, st.log)
	if err != nil {
		t.Fatal(err)
	}
	dc.AckTimeout = 200 * time.Millisecond
	if _, err := dc.RestoreCommitted(); err != nil {
		t.Fatal(err)
	}
	handshake := make(chan error, 1)
	go func() {
		if _, err := df.Handshake(); err != nil {
			handshake <- err
			return
		}
		handshake <- nil
	}()
	if _, err := dc.AddFollower(ctrlA); err != nil {
		t.Fatal(err)
	}
	if err := <-handshake; err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var coordErr, followErr error
	wg.Add(2)
	go func() { defer wg.Done(); coordErr = b.Graph().Run() }()
	go func() { defer wg.Done(); followErr = df.Run() }()
	deadline := time.Now().Add(10 * time.Second)
	for src.pos.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator plan never started")
		}
		time.Sleep(time.Millisecond)
	}

	_, err = dc.CheckpointOnce(snapshot.CaptureFull)
	if err == nil || !strings.Contains(err.Error(), "no ack") {
		t.Fatalf("expected ack-timeout abandonment, got %v", err)
	}
	if dc.CommittedEpoch() != 0 {
		t.Fatalf("abandoned epoch committed (%d)", dc.CommittedEpoch())
	}
	b.Graph().Kill()
	fb.Graph().Kill()
	wg.Wait()
	if !errors.Is(coordErr, exec.ErrKilled) || !errors.Is(followErr, exec.ErrKilled) {
		t.Fatalf("teardown: %v / %v", coordErr, followErr)
	}
}

// rawEdge drives one remote edge through a hand-held remote.Sink, so the
// test controls exactly which tuples sit on which side of the wire
// barrier. No feedback flows in this test, so the sink runs without a
// runtime context.
type rawEdge struct{ sink *remote.Sink }

func newRawEdge(t *testing.T, name string, conn net.Conn) *rawEdge {
	t.Helper()
	s := remote.NewSink(name, testSchema, conn)
	s.FlushEvery = 1
	if err := s.Open(nil); err != nil {
		t.Fatal(err)
	}
	return &rawEdge{sink: s}
}

func (r *rawEdge) tuples(t *testing.T, seg int64, ts ...int64) {
	t.Helper()
	for _, v := range ts {
		if err := r.sink.ProcessTuple(0, reading(seg, v, 50), nil); err != nil {
			t.Error(err)
		}
	}
}

func (r *rawEdge) barrier(t *testing.T, epoch int64) {
	t.Helper()
	if err := r.sink.ForwardBarrier(epoch, nil); err != nil {
		t.Error(err)
	}
}

func (r *rawEdge) eos(t *testing.T) {
	t.Helper()
	if err := r.sink.Close(nil); err != nil {
		t.Error(err)
	}
}

// fakeCoordinator plays the control-connection peer: handshake reply with
// the given restore epoch, then relay acks.
func fakeCoordinator(t *testing.T, ctrl net.Conn, restoreEpoch int64) <-chan snapshot.DistMsg {
	t.Helper()
	acks := make(chan snapshot.DistMsg, 16)
	go func() {
		hello, err := snapshot.ReadDistMsg(ctrl)
		if err != nil || hello.Kind != snapshot.DistHello {
			t.Errorf("handshake hello: %+v %v", hello, err)
			return
		}
		if err := snapshot.WriteDistMsg(ctrl, snapshot.DistMsg{Kind: snapshot.DistRestore, Epoch: restoreEpoch}); err != nil {
			t.Error(err)
			return
		}
		for {
			m, err := snapshot.ReadDistMsg(ctrl)
			if err != nil {
				close(acks)
				return
			}
			acks <- m
		}
	}()
	return acks
}

// TestParallelRemoteEdgesCutAtOwnBarrier pins the per-edge cut rule: with
// TWO remote edges feeding one follower, each source must cut exactly at
// its own wire barrier. Edge B's pre-barrier tuples arrive only after edge
// A's barrier has already registered the epoch — a poll-based cut would
// snapshot B early and strand those tuples outside the epoch, so the
// restored run would lose them.
func TestParallelRemoteEdgesCutAtOwnBarrier(t *testing.T) {
	chain := snapshot.NewChain(snapshot.NewMemory())

	runIncarnation := func(restoreEpoch int64, drive func(wA, wB *rawEdge, acks <-chan snapshot.DistMsg)) []string {
		t.Helper()
		dataA1, dataA2 := net.Pipe()
		dataB1, dataB2 := net.Pipe()
		ctrl1, ctrl2 := net.Pipe()
		defer ctrl1.Close()
		defer ctrl2.Close()

		b := New()
		sa := b.RemoteSource("edge-a", testSchema, dataA2)
		sb := b.RemoteSource("edge-b", testSchema, dataB2)
		sink := sa.Union("u", sb).Collect("sink")
		df, err := b.DistFollow("consumer", chain, ctrl2)
		if err != nil {
			t.Fatal(err)
		}
		acks := fakeCoordinator(t, ctrl1, restoreEpoch)
		restored, err := df.Handshake()
		if err != nil {
			t.Fatal(err)
		}
		if (restoreEpoch > 0) != restored {
			t.Fatalf("restored=%v for restore epoch %d", restored, restoreEpoch)
		}
		runErr := make(chan error, 1)
		go func() { runErr <- df.Run() }()
		drive(newRawEdge(t, "edge-a-writer", dataA1), newRawEdge(t, "edge-b-writer", dataB1), acks)
		if err := <-runErr; err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, tp := range sink.Tuples() {
			lines = append(lines, tp.String())
		}
		sort.Strings(lines)
		return lines
	}

	// Incarnation 1: A sends 5 tuples then its barrier; once those are on
	// the wire and the epoch has had time to register, B sends its 8
	// pre-barrier tuples followed by its barrier. After the epoch is acked
	// (persisted), both edges send their post-barrier tail and EOS.
	full := runIncarnation(0, func(wA, wB *rawEdge, acks <-chan snapshot.DistMsg) {
		wA.tuples(t, 0, 1000, 2000, 3000, 4000, 5000)
		wA.barrier(t, 1)
		// Let edge A's barrier register the epoch before B's pre-barrier
		// tuples arrive: the window in which an eager poll-based cut would
		// snapshot B too early.
		time.Sleep(50 * time.Millisecond)
		wB.tuples(t, 1, 1100, 2100, 3100, 4100, 5100, 6100, 7100, 8100)
		wB.barrier(t, 1)
		ack := <-acks
		if ack.Kind != snapshot.DistAck || ack.Epoch != 1 || ack.Err != "" {
			t.Fatalf("ack: %+v", ack)
		}
		wA.tuples(t, 0, 6000, 7000)
		wA.eos(t)
		wB.tuples(t, 1, 9100)
		wB.eos(t)
	})
	if len(full) != 16 {
		t.Fatalf("uninterrupted run collected %d tuples, want 16", len(full))
	}

	// Incarnation 2: crash-after-the-ack — rebuild, restore epoch 1, and
	// replay only the post-barrier frames. Everything before each edge's
	// OWN barrier must already be in the restored state.
	recovered := runIncarnation(1, func(wA, wB *rawEdge, _ <-chan snapshot.DistMsg) {
		wA.tuples(t, 0, 6000, 7000)
		wA.eos(t)
		wB.tuples(t, 1, 9100)
		wB.eos(t)
	})
	if len(recovered) != len(full) {
		t.Fatalf("recovered run has %d tuples, uninterrupted %d — an edge was cut away from its own barrier", len(recovered), len(full))
	}
	for i := range full {
		if recovered[i] != full[i] {
			t.Fatalf("tuple %d diverged: %s vs %s", i, recovered[i], full[i])
		}
	}
}
