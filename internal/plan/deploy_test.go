package plan

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// TestPlaceSplitsOneLogicalPlan: a plan placed on two parts runs in-process
// (Run, the cut over a pipe) to the digest of the same plan unplaced,
// compiled or not; each part's Explain shows the remote endpoints at the
// cut; a part that cannot start fails Run; and a placement Deploy does not
// support fails the plan, naming the edge.
func TestPlaceSplitsOneLogicalPlan(t *testing.T) {
	items := aggWorkload(3000)
	build := func(place, compile bool) (*Builder, []string) {
		b := New()
		s := b.Source(&pacedItems{name: "src", schema: testSchema, items: items}).
			Select("keep", func(stream.Tuple) bool { return true }).
			Select("keep2", func(stream.Tuple) bool { return true })
		if place {
			s = s.Place("consumer")
		}
		sink := s.Parallel("p", 2, []string{"segment"}, func(ss Stream) Stream {
			return ss.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(1_000_000), "avg_speed")
		}).Collect("sink")
		if compile {
			b.Compile()
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		return b, sink.Lines()
	}
	_, want := build(false, false)
	for _, compile := range []bool{false, true} {
		b, got := build(true, compile)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("compile=%v: placed plan's %d rows differ from the unplaced plan's %d", compile, len(got), len(want))
		}
		if parts := strings.Join(b.Parts(), ","); parts != "coord,consumer" {
			t.Fatalf("parts %s", parts)
		}
		ex := b.Explain()
		for _, w := range []string{"part coord:\n", "to-consumer <- ", "part consumer:\n 0: source from-coord\n", "p.split <- from-coord[0]"} {
			if !strings.Contains(ex, w) {
				t.Errorf("compile=%v: Explain lacks %q:\n%s", compile, w, ex)
			}
		}
		// Fusion stops at the cut: the consumer part holds no coordinating-part
		// operator.
		if follow := ex[strings.Index(ex, "part consumer:"):]; strings.Contains(follow, "keep") {
			t.Errorf("compile=%v: an operator crossed the cut:\n%s", compile, ex)
		}
	}

	// A part that fails before its edges open — here a restore staged from
	// another plan — fails Run instead of stranding the part it feeds.
	b := New()
	b.Source(testSource("src")).Place("consumer").Collect("sink")
	if err := b.Graph().RestoreChain(&snapshot.Snapshot{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err == nil || !strings.Contains(err.Error(), "plan drift") {
		t.Fatalf("Run with a drifted part returned %v", err)
	}

	for _, c := range []struct {
		name, edge string
		place      func(s Stream)
	}{
		{"a follower feeds a part", "keep[0] -> b", func(s Stream) {
			s.Place("a").Select("keep", nil).Place("b")
		}},
		{"a part fed twice", "d[1] -> a", func(s Stream) {
			d := s.Duplicate("d", 2)
			d[0].Place("a").Collect("x")
			d[1].Place("a")
		}},
	} {
		b := New()
		c.place(b.Source(testSource("src")))
		err := b.Err()
		if err == nil || !strings.Contains(err.Error(), c.edge) {
			t.Errorf("%s: plan error %v, want one naming %q", c.name, err, c.edge)
		}
		if _, derr := Deploy(b, Coordinator, snapshot.NewMemory(), Pipes()); derr == nil || derr.Error() != err.Error() {
			t.Errorf("%s: Deploy returned %v, want the plan's error", c.name, derr)
		}
	}
}

// TestTCPRefusesForeignTag: the coordinating part's accept loop refuses a
// connection whose tag names no link it waits for, and closes every
// connection it accepted before it.
func TestTCPRefusesForeignTag(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	links := []Link{{Part: "follow"}, {Part: "follow", Data: true}}
	accepted := make(chan error, 1)
	go func() {
		_, err := TCP(addr)(Coordinator, links)
		accepted <- err
	}()
	ctrl, err := dial(addr, links[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	foreign, err := dial(addr, Link{Part: "intruder", Data: true})
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()
	if err := <-accepted; err == nil || !strings.Contains(err.Error(), "intruder") {
		t.Fatalf("Connect returned %v, want a refused tag", err)
	}
	for name, c := range map[string]net.Conn{"accepted control": ctrl, "refused": foreign} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s connection: read returned %v, want EOF (closed by the coordinating part)", name, err)
		}
	}
}

// slowConn delays its Close. On the coordinating part's links, a kill that
// stopped its nodes before cutting its links would let a closing sink's end
// of stream through first.
type slowConn struct{ net.Conn }

func (c slowConn) Close() error {
	time.Sleep(20 * time.Millisecond)
	return c.Conn.Close()
}

// TestKilledPartDropsItsLinks: killing the coordinating part alone is a
// crash to its follower. The links drop with no end of stream, so the
// follower fails instead of finishing on a truncated stream.
func TestKilledPartDropsItsLinks(t *testing.T) {
	items := aggWorkload(20000)
	src := &pacedItems{name: "src", schema: testSchema, items: items}
	b := New()
	b.Source(src).Place("consumer").Collect("sink")
	pipes := Pipes()
	tr := func(part string, links []Link) ([]net.Conn, error) {
		conns, err := pipes(part, links)
		for i := range conns {
			if part == Coordinator {
				conns[i] = slowConn{conns[i]}
			}
		}
		return conns, err
	}
	deps := make([]*Deployment, len(b.Parts()))
	errs := make(chan error, len(deps))
	for i, part := range b.Parts() {
		go func() {
			var err error
			deps[i], err = Deploy(b, part, snapshot.NewMemory(), tr)
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
			runErrs[i], _ = d.Run(exec.CheckpointPolicy{Interval: 10 * time.Millisecond}, 0)
		}()
	}
	for deadline := time.Now().Add(30 * time.Second); deps[0].Committed() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no epoch committed")
		}
	}
	if src.pos.Load() >= int64(len(items)) {
		t.Fatal("the stream ended before the kill")
	}
	deps[0].Kill()
	wg.Wait()
	if !errors.Is(runErrs[0], exec.ErrKilled) || runErrs[1] == nil {
		t.Fatalf("after killing the coordinating part: coordinator %v, follower %v", runErrs[0], runErrs[1])
	}
}
