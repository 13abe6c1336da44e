package plan

import (
	"errors"
	"fmt"
	"net"
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

// distStores is the "durable storage" of a plan placed on two parts, one
// backend per part, surviving in-process crashes; the coordinating part's
// also holds the manifest log.
type distStores map[string]snapshot.Backend

func newDistStores() distStores {
	return distStores{Coordinator: snapshot.NewMemory(), "consumer": snapshot.NewMemory()}
}

// runDistPair deploys one incarnation of a plan placed on two parts — paced
// source on the coordinating part, Parallel(2) aggregate and collector on
// "consumer" — over in-process pipes, and runs it to its end, or kills both
// parts once killAt epochs are committed (0 = never). It returns the
// consumer's canonical results, the committed epoch and the coordinating
// part's checkpoint error.
func runDistPair(t *testing.T, items []queue.Item, st distStores, killAt int64) (results []string, committed int64, chkErr error) {
	t.Helper()
	b := New()
	sink := b.Source(&pacedItems{name: "src", schema: testSchema, items: items}).Place("consumer").
		Parallel("p", 2, []string{"segment"}, func(ss Stream) Stream {
			return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(1_000_000), "avg_speed")
		}).Collect("sink")
	tr := Pipes()
	deps := make([]*Deployment, len(b.Parts()))
	errs := make(chan error, len(deps))
	for i, part := range b.Parts() {
		go func() {
			var err error
			deps[i], err = Deploy(b, part, st[part], tr)
			errs <- err
		}()
	}
	for range deps {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	runErrs := make([]error, len(deps))
	var wg sync.WaitGroup
	for i, d := range deps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c error
			if runErrs[i], c = d.Run(exec.CheckpointPolicy{Interval: 10 * time.Millisecond, Retain: 3}, 0); i == 0 {
				chkErr = c
			}
		}()
	}
	if killAt > 0 {
		for deadline := time.Now().Add(30 * time.Second); deps[0].Committed() < killAt; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("kill condition never reached")
			}
		}
		for _, d := range deps {
			d.Kill()
		}
	}
	wg.Wait()
	switch {
	case killAt > 0 && !errors.Is(runErrs[0], exec.ErrKilled):
		t.Fatalf("killed coordinator returned %v", runErrs[0])
	case killAt == 0 && errors.Join(runErrs...) != nil:
		t.Fatalf("run: %v", errors.Join(runErrs...))
	}
	return sink.Lines(), deps[0].Committed(), chkErr
}

// TestDistCheckpointKillRestore is the cross-process acceptance test: a
// plan placed on two parts runs under distributed checkpoints; both parts
// are killed mid-epoch; the redeployed plan restores from the last committed
// distributed manifest and completes. The final canonical result set must be
// identical to an uninterrupted run's — the in-flight epoch was abandoned,
// not half-applied.
func TestDistCheckpointKillRestore(t *testing.T) {
	items := aggWorkload(6000)
	// Tail-of-run abandons (an epoch triggered as the stream ended) are
	// tolerated; anything else is a coordination fault.
	clean := func(err error) {
		if err != nil && !strings.Contains(err.Error(), "abandoned") {
			t.Fatalf("checkpointing: %v", err)
		}
	}

	// Uninterrupted reference on fresh storage.
	want, _, chkErr := runDistPair(t, items, newDistStores(), 0)
	clean(chkErr)
	if len(want) == 0 {
		t.Fatal("workload produced no results")
	}

	// Crash both parts once two distributed epochs are committed.
	st := newDistStores()
	if _, committedAtKill, _ := runDistPair(t, items, st, 2); committedAtKill < 2 {
		t.Fatalf("killed with only %d committed epochs", committedAtKill)
	}
	// Both chains may hold epochs past the committed manifest (persisted
	// but never globally acknowledged); restore must discard them.
	got, _, chkErr := runDistPair(t, items, st, 0)
	clean(chkErr)

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
	st := newDistStores()
	st["consumer"] = failingBackend{snapshot.NewMemory()}

	results, committed, chkErr := runDistPair(t, aggWorkload(2000), st, 0)
	if chkErr == nil || !strings.Contains(chkErr.Error(), "abandoned") {
		t.Fatalf("expected abandoned epochs, got %v", chkErr)
	}
	if committed != 0 {
		t.Fatalf("coordinator committed epoch %d despite follower persist failures", committed)
	}
	if eps, _ := snapshot.NewDistLog(st[Coordinator]).Epochs(); len(eps) > 0 {
		t.Fatalf("manifests %v committed despite follower persist failures", eps)
	}
	if len(results) == 0 {
		t.Fatal("checkpoint failures must not stop the stream")
	}
}

// TestDistAckTimeoutAbandons: a follower that never acks (its subplan has
// no remote source, so no barrier ever reaches it) trips the coordinator's
// ack timeout and the epoch is abandoned rather than committed or hung.
func TestDistAckTimeoutAbandons(t *testing.T) {
	ctrlA, ctrlB := net.Pipe()
	defer ctrlA.Close()
	defer ctrlB.Close()

	coordStore := snapshot.NewMemory()
	// Follower: a local-source subplan that parks mid-stream, handshaken
	// over the control pipe but structurally unable to see barriers.
	fitems := aggWorkload(4000)
	fb := New()
	fsrc := &pacedItems{name: "fsrc", schema: testSchema, items: fitems}
	fb.Source(fsrc).Collect("fsink")
	df, err := fb.DistFollow("consumer", snapshot.NewChain(snapshot.NewMemory()), ctrlB)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator: its own paced subplan.
	b := New()
	src := &pacedItems{name: "src", schema: testSchema, items: aggWorkload(4000)}
	b.Source(src).Collect("sink")
	dc, err := b.DistCoordinate("producer", snapshot.NewChain(coordStore), snapshot.NewDistLog(coordStore))
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
		return sink.Lines()
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
