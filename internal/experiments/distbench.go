package experiments

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/snapshot"
	"repro/internal/window"
)

// DistBench is a running coordinator/follower pair over loopback TCP,
// parked mid-stream and ready to take distributed checkpoints repeatedly:
// the measured span of one Checkpoint call is the full cross-process epoch
// — barrier injection, wire crossing, the follower's aligned cut and
// persist, the ack, and the manifest commit (BenchmarkRemoteBarrier).
type DistBench struct {
	dc        *exec.DistCoordinator
	coordG    *exec.Graph
	followG   *exec.Graph
	ctrlA     net.Conn
	ctrlB     net.Conn
	coordErr  chan error
	followErr chan error
	count     int
}

// StartDistBench builds and starts the pair, returning once the producer
// has parked at its gate.
func StartDistBench(tuples int) (*DistBench, error) {
	items := ParallelTrafficItems(tuples)
	gateAt := len(items) * 9 / 10
	src := &gatedTrafficSource{items: items, gateAt: gateAt}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	type accepted struct {
		conn net.Conn
		err  error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		conn, err := l.Accept()
		l.Close()
		acceptCh <- accepted{conn, err}
	}()
	dataOut, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	acc := <-acceptCh
	if acc.err != nil {
		return nil, acc.err
	}
	ctrlA, ctrlB := net.Pipe()

	coordBackend := snapshot.NewMemory()
	db := &DistBench{
		ctrlA: ctrlA, ctrlB: ctrlB,
		coordErr: make(chan error, 1), followErr: make(chan error, 1),
	}

	// Follower: remote source → Parallel(2) aggregate → discard sink.
	fb := plan.New()
	out := fb.RemoteSource("from-producer", gen.TrafficSchema, acc.conn).
		Parallel("part", 2, []string{"segment"}, func(ss plan.Stream) plan.Stream {
			return ss.Through(&op.Aggregate{OpName: "agg", In: gen.TrafficSchema, Kind: core.AggAvg,
				TsAttr: 2, ValAttr: 3, GroupBy: []int{0}, Window: window.Tumbling(60_000_000),
				ValueName: "avg_speed", Mode: op.FeedbackExploit, Propagate: true})
		})
	sink := exec.NewCollector("sink", out.Schema())
	sink.Discard = true
	out.Into(sink)
	df, err := fb.DistFollow("consumer", snapshot.NewChain(snapshot.NewMemory()), ctrlB)
	if err != nil {
		return nil, err
	}
	db.followG = fb.Graph()

	// Coordinator: gated traffic source → remote sink.
	cb := plan.New()
	cb.Source(src).IntoRemote("to-consumer", dataOut)
	dc, err := cb.DistCoordinate("producer", snapshot.NewChain(coordBackend), snapshot.NewDistLog(coordBackend))
	if err != nil {
		return nil, err
	}
	dc.AckTimeout = 30 * time.Second
	if _, err := dc.RestoreCommitted(); err != nil {
		return nil, err
	}
	handshake := make(chan error, 1)
	go func() {
		_, err := df.Handshake()
		handshake <- err
	}()
	if _, err := dc.AddFollower(ctrlA); err != nil {
		return nil, err
	}
	if err := <-handshake; err != nil {
		return nil, err
	}
	db.dc = dc
	db.coordG = cb.Graph()

	go func() { db.coordErr <- db.coordG.Run() }()
	go func() { db.followErr <- df.Run() }()
	deadline := time.Now().Add(30 * time.Second)
	for src.pos.Load() < int64(gateAt) {
		select {
		case err := <-db.coordErr:
			return nil, fmt.Errorf("experiments: dist bench producer exited early: %v", err)
		case err := <-db.followErr:
			return nil, fmt.Errorf("experiments: dist bench consumer exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("experiments: dist bench stuck at %d/%d", src.pos.Load(), gateAt)
		}
		time.Sleep(time.Millisecond)
	}
	return db, nil
}

// Checkpoint takes one distributed epoch end to end (every 4th full, the
// rest incremental — the supervise cadence).
func (db *DistBench) Checkpoint() (int64, error) {
	mode := snapshot.CaptureDelta
	if db.count%4 == 0 {
		mode = snapshot.CaptureFull
	}
	db.count++
	return db.dc.CheckpointOnce(mode)
}

// Stop tears the pair down.
func (db *DistBench) Stop() error {
	db.coordG.Kill()
	db.followG.Kill()
	err1 := <-db.coordErr
	err2 := <-db.followErr
	db.ctrlA.Close()
	db.ctrlB.Close()
	for _, err := range []error{err1, err2} {
		if err != nil && !errors.Is(err, exec.ErrKilled) {
			return err
		}
	}
	return nil
}
