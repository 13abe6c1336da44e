package main

import (
	"net"
	"testing"
	"time"

	execpkg "repro/internal/exec"
	"repro/internal/snapshot"
)

// incarnation is one build of the demo workload under its checkpoint
// coordinator: the whole plan with no followers, or the producer half with
// the consumer half following it over a pair of pipes.
type incarnation struct {
	dc     *execpkg.DistCoordinator
	follow func() error // runs the follower's half; nil when there is none
	sink   *execpkg.Collector
	kill   func()
}

// TestLocalPlanIsTheProtocolWithZeroFollowers cuts, kills and restores
// cmd/supervise's workload twice — as one plan whose coordinator has no
// followers, and split across a coordinator and a follower — and both must
// recover to the rows an uninterrupted run produces: a single-process run is
// the distributed protocol with nobody to wait for, not a second path.
func TestLocalPlanIsTheProtocolWithZeroFollowers(t *testing.T) {
	o := options{parts: 2, minutes: 10, fuse: true}
	policy := execpkg.CheckpointPolicy{Interval: 10 * time.Millisecond, Retain: 3}

	bRef, sinkRef := buildPlan(o)
	if err := bRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := digestLine(sinkRef)

	// Each mode keeps its backends across incarnations: the second one
	// restores what the first committed.
	coordStore, followStore := snapshot.NewMemory(), snapshot.NewMemory()
	local := func() incarnation {
		b, sink := buildPlan(o)
		dc, err := b.DistCoordinate("child", snapshot.NewChain(coordStore), snapshot.NewDistLog(coordStore))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.RestoreCommitted(); err != nil {
			t.Fatal(err)
		}
		return incarnation{dc: dc, sink: sink, kill: b.Graph().Kill}
	}
	split := func() incarnation {
		dataA, dataB := net.Pipe()
		ctrlA, ctrlB := net.Pipe()
		bc, _ := buildCoordPlan(o, dataA)
		bf, sink := buildFollowPlan(o, dataB)
		dc, err := bc.DistCoordinate("coord", snapshot.NewChain(coordStore), snapshot.NewDistLog(coordStore))
		if err != nil {
			t.Fatal(err)
		}
		df, err := bf.DistFollow("follow", snapshot.NewChain(followStore), ctrlB)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.RestoreCommitted(); err != nil {
			t.Fatal(err)
		}
		shook := make(chan error, 1)
		go func() { _, err := df.Handshake(); shook <- err }()
		if _, err := dc.AddFollower(ctrlA); err != nil {
			t.Fatal(err)
		}
		if err := <-shook; err != nil {
			t.Fatal(err)
		}
		return incarnation{dc: dc, follow: df.Run, sink: sink, kill: func() {
			bc.Graph().Kill()
			bf.Graph().Kill()
			for _, c := range []net.Conn{dataA, dataB, ctrlA, ctrlB} {
				c.Close()
			}
		}}
	}
	// run drives one incarnation to its end, or to its death once killAt
	// epochs are committed (0 = never), and returns the epoch it died at.
	run := func(in incarnation, killAt int64) int64 {
		t.Helper()
		done := make(chan error, 2)
		go func() { runErr, _ := in.dc.RunCheckpointed(policy); done <- runErr }()
		parts := 1
		if in.follow != nil {
			parts = 2
			go func() { done <- in.follow() }()
		}
		if killAt > 0 {
			for deadline := time.Now().Add(30 * time.Second); in.dc.CommittedEpoch() < killAt; {
				if time.Now().After(deadline) {
					t.Fatalf("never committed epoch %d (at %d)", killAt, in.dc.CommittedEpoch())
				}
				time.Sleep(time.Millisecond)
			}
			in.kill()
		}
		for i := 0; i < parts; i++ {
			if err := <-done; (err != nil) != (killAt > 0) {
				t.Fatalf("run returned %v, killed=%v", err, killAt > 0)
			}
		}
		return in.dc.CommittedEpoch()
	}

	for _, mode := range []struct {
		name  string
		build func() incarnation
	}{{"no followers", local}, {"one follower", split}} {
		coordStore, followStore = snapshot.NewMemory(), snapshot.NewMemory()
		died := run(mode.build(), 3)
		second := mode.build()
		if at := second.dc.CommittedEpoch(); at < 3 || at > died {
			t.Fatalf("%s: restored from epoch %d, the first incarnation committed 3..%d", mode.name, at, died)
		}
		run(second, 0)
		if got := digestLine(second.sink); got != want {
			t.Errorf("%s: recovered %q, the uninterrupted run %q", mode.name, got, want)
		}
	}
}
