package chaos

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// Schedules must be a pure function of the seed — that is the entire
// replayability contract.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed < 200; seed++ {
		for _, dist := range []bool{false, true} {
			a, b := Generate(seed, dist), Generate(seed, dist)
			if a.String() != b.String() {
				t.Fatalf("seed %d dist=%v: schedules differ:\n%s\n%s", seed, dist, a, b)
			}
			if len(a.Faults) == 0 {
				t.Fatalf("seed %d dist=%v: empty schedule", seed, dist)
			}
		}
	}
}

// Generated schedules must terminate: bounded restart cost, strictly
// increasing kill thresholds, and every incarnation reachable (the i-th
// restart-costing fault armed in generation i).
func TestGenerateWellFormed(t *testing.T) {
	for seed := uint64(1); seed < 500; seed++ {
		for _, dist := range []bool{false, true} {
			p := Generate(seed, dist)
			fatal := 0
			lastKill := int64(0)
			for _, f := range p.Faults {
				switch f.Kind {
				case FaultKill:
					if f.Incarnation != fatal {
						t.Fatalf("seed %d: kill in incarnation %d, want %d: %s", seed, f.Incarnation, fatal, p)
					}
					if f.Epoch <= lastKill {
						t.Fatalf("seed %d: kill threshold %d not past previous %d: %s", seed, f.Epoch, lastKill, p)
					}
					lastKill = f.Epoch
					fatal++
				case FaultSever:
					if f.Incarnation != fatal {
						t.Fatalf("seed %d: fatal fault in incarnation %d, want %d: %s", seed, f.Incarnation, fatal, p)
					}
					fatal++
				default:
					if f.Incarnation > fatal {
						t.Fatalf("seed %d: fault armed in unreachable incarnation %d (only %d restarts scheduled): %s",
							seed, f.Incarnation, fatal, p)
					}
				}
				if f.Kind == FaultDropWrite && f.Target == TargetCtrl && f.N == 0 {
					t.Fatalf("seed %d: drop-write would eat the handshake message: %s", seed, p)
				}
				if f.Kind == FaultDropWrite && f.Target == TargetData {
					t.Fatalf("seed %d: drop-write on a data connection silently loses a frame of tuples: %s", seed, p)
				}
			}
			if fatal > maxFatal {
				t.Fatalf("seed %d: %d restart-costing faults exceeds cap %d: %s", seed, fatal, maxFatal, p)
			}
		}
	}
}

// The per-commit fuzz smoke runs seeds 1–4 in both modes; between them they
// must schedule every fault kind, or a change to Generate could silently
// drop a kind from the coverage every change gets.
func TestSmokeSeedsCoverEveryFaultKind(t *testing.T) {
	seen := map[FaultKind]bool{}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, dist := range []bool{false, true} {
			for _, f := range Generate(seed, dist).Faults {
				seen[f.Kind] = true
			}
		}
	}
	for k := FaultKill; k <= FaultBitFlip; k++ {
		if !seen[k] {
			t.Errorf("seeds 1-4 schedule no %s fault", k)
		}
	}
}

// With no faults the wrappers must return the original objects — the
// zero-cost-when-off contract.
func TestWrapZeroCostWhenOff(t *testing.T) {
	b := snapshot.NewMemory()
	if got := WrapBackend(b, nil); got != snapshot.Backend(b) {
		t.Fatal("WrapBackend with no faults did not return the original backend")
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := WrapConn(c1, nil); got != net.Conn(c1) {
		t.Fatal("WrapConn with no faults did not return the original conn")
	}
}

func TestBackendFaults(t *testing.T) {
	blob := func() []byte {
		s := &snapshot.Snapshot{Epoch: 1, Nodes: []snapshot.NodeState{{ID: 0, Name: "n", State: []byte("state")}}}
		return s.Encode()
	}()

	t.Run("fail-put", func(t *testing.T) {
		mem := snapshot.NewMemory()
		b := WrapBackend(mem, []Fault{{Kind: FaultFailOp, N: 1}})
		if err := b.Put("a", blob); err != nil {
			t.Fatalf("put 0: %v", err)
		}
		if err := b.Put("b", blob); err == nil {
			t.Fatal("put 1 did not fail")
		}
		if err := b.Put("c", blob); err != nil {
			t.Fatalf("put 2 (fault must fire once): %v", err)
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		mem := snapshot.NewMemory()
		b := WrapBackend(mem, []Fault{{Kind: FaultBitFlip, N: 0, Bit: 12345}})
		if err := b.Put("a", blob); err != nil {
			t.Fatalf("put: %v", err)
		}
		data, err := mem.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Decode(data); err == nil {
			t.Fatal("bit-flipped blob decoded cleanly (checksum missed it)")
		}
	})

	t.Run("torn-put", func(t *testing.T) {
		mem := snapshot.NewMemory()
		b := WrapBackend(mem, []Fault{{Kind: FaultTornWrite, N: 0, Pct: 50}})
		if err := b.Put("a", blob); err != nil {
			t.Fatalf("put: %v", err)
		}
		data, err := mem.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if len(data) >= len(blob) {
			t.Fatalf("torn write kept %d of %d bytes", len(data), len(blob))
		}
		if _, err := snapshot.Decode(data); err == nil {
			t.Fatal("torn blob decoded cleanly")
		}
	})
}

func TestConnFaults(t *testing.T) {
	t.Run("drop-write", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		w := WrapConn(a, []Fault{{Kind: FaultDropWrite, N: 1}})
		got := make(chan []byte, 4)
		go func() {
			buf := make([]byte, 64)
			for {
				n, err := b.Read(buf)
				if err != nil {
					close(got)
					return
				}
				got <- append([]byte(nil), buf[:n]...)
			}
		}()
		for _, msg := range []string{"one", "two", "three"} {
			if _, err := w.Write([]byte(msg)); err != nil {
				t.Fatalf("write %q: %v", msg, err)
			}
		}
		a.Close()
		var recv []string
		for m := range got {
			recv = append(recv, string(m))
		}
		if strings.Join(recv, ",") != "one,three" {
			t.Fatalf("receiver saw %v, want [one three]", recv)
		}
	})

	t.Run("sever", func(t *testing.T) {
		a, b := net.Pipe()
		defer b.Close()
		w := WrapConn(a, []Fault{{Kind: FaultSever, N: 1}})
		go func() {
			buf := make([]byte, 16)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		if _, err := w.Write([]byte("ok")); err != nil {
			t.Fatalf("write 0: %v", err)
		}
		if _, err := w.Write([]byte("boom")); err == nil {
			t.Fatal("severed write reported success")
		}
		if _, err := w.Write([]byte("after")); err == nil {
			t.Fatal("write after sever reported success")
		}
	})

	t.Run("delay", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		w := WrapConn(a, []Fault{{Kind: FaultDelay, N: 0, Count: 1, Delay: 50 * time.Millisecond}})
		go func() {
			buf := make([]byte, 16)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		start := time.Now()
		if _, err := w.Write([]byte("slow")); err != nil {
			t.Fatalf("write: %v", err)
		}
		if d := time.Since(start); d < 50*time.Millisecond {
			t.Fatalf("delayed write returned after %v, want >= 50ms", d)
		}
	})
}
