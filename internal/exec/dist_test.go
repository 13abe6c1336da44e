package exec

import (
	"strings"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// ownCuts is a source that cuts only at barriers of its own stream
// (BarrierSource), as remote.Source does.
type ownCuts struct{ Source }

func (ownCuts) CutsAtBarrier() {}

// TestCheckpointAtSemantics pins the forced-epoch branch logic that
// cross-process barriers rely on. The graph's only source cuts at its own
// barriers alone, so a forced epoch stays active (pending that source's
// cut) for as long as the test needs.
func TestCheckpointAtSemantics(t *testing.T) {
	tuples := make([]stream.Tuple, 50)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	src := &gatedSource{name: "src", schema: oneInt, tuples: tuples, gateAt: 10}
	g := NewGraph()
	sid := g.AddSource(ownCuts{src})
	col := NewCollector("col", oneInt)
	g.Add(col, From(sid))
	chain := snapshot.NewChain(snapshot.NewMemory())

	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	deadline := time.Now().Add(10 * time.Second)
	for src.emitted.Load() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("source never reached its gate")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := g.checkpointAt(0, chain); err == nil {
		t.Error("non-positive epoch accepted")
	}
	c5, err := g.checkpointAt(5, chain)
	if err != nil || c5 == nil {
		t.Fatalf("forced epoch 5: checkpoint=%v err=%v", c5, err)
	}
	// Same epoch from a second remote edge: joins the active checkpoint.
	dup, err := g.checkpointAt(5, chain)
	if err != nil || dup != c5 {
		t.Fatalf("duplicate epoch 5 did not join the active checkpoint (checkpoint=%v err=%v)", dup, err)
	}
	// A stale barrier draining behind the active epoch: dropped, not an
	// error — erroring would kill the subplan on an abandoned epoch's
	// leftover frame.
	stale, err := g.checkpointAt(3, chain)
	if err != nil || stale != nil {
		t.Fatalf("stale epoch 3 behind active 5: checkpoint=%v err=%v, want nil/nil", stale, err)
	}
	// A newer epoch supersedes the still-aligning one: epoch 5 resolves as
	// abandoned and epoch 7 becomes the active checkpoint.
	c7, err := g.checkpointAt(7, chain)
	if err != nil || c7 == nil {
		t.Fatalf("superseding epoch 7: checkpoint=%v err=%v", c7, err)
	}
	select {
	case <-c5.done:
	case <-time.After(5 * time.Second):
		t.Fatal("superseded epoch 5 never resolved")
	}
	st, ok := statusOf(g, 5)
	if !ok || st.Err == nil || !strings.Contains(st.Err.Error(), "superseded") {
		t.Fatalf("superseded epoch status: %+v ok=%v", st, ok)
	}
	// And now a stale barrier for 5 (no longer active): dropped too.
	if stale, err := g.checkpointAt(5, chain); err != nil || stale != nil {
		t.Fatalf("stale epoch 5 after supersede: checkpoint=%v err=%v, want nil/nil", stale, err)
	}

	g.Kill()
	<-runErr
	g.WaitCheckpoints()
}

// TestWireBarrierSourceSkipsPollCut: a source that cuts at its own barriers
// (BarrierSource) must not cut at the poll position — only the barrier it
// hands the runtime (Barrier) cuts it.
func TestWireBarrierSourceSkipsPollCut(t *testing.T) {
	tuples := make([]stream.Tuple, 20)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	src := &gatedSource{name: "src", schema: oneInt, tuples: tuples, gateAt: 5}
	g := NewGraph()
	g.Add(NewCollector("col", oneInt), From(g.AddSource(ownCuts{src})))
	chain := snapshot.NewChain(snapshot.NewMemory())

	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	deadline := time.Now().Add(10 * time.Second)
	for src.emitted.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("source never reached its gate")
		}
		time.Sleep(time.Millisecond)
	}
	c, err := g.checkpointAt(1, chain)
	if err != nil || c == nil {
		t.Fatalf("forced epoch: %v", err)
	}
	// The source idles at its gate; a poll-cut would complete the epoch
	// within a few runner iterations. It must stay pending.
	select {
	case <-c.done:
		t.Fatal("a source that cuts at its own barriers was cut by the poll path")
	case <-time.After(100 * time.Millisecond):
	}
	g.Kill()
	<-runErr
	g.WaitCheckpoints()
}
