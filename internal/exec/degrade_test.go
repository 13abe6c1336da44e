package exec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// TestRestoreCommittedDegrades runs a plan with no followers far enough to
// commit three epochs, kills it, damages what the backend holds, and
// restores into a rebuilt plan. Whatever the damage, the restore lands on
// the newest commit whose manifest and snapshot are intact, reports each
// commit it walked past as a typed skip, rewinds the manifest log and the
// chain to where it landed — so the resumed run can commit those epochs
// again — and the recovered run produces exactly the uninterrupted result.
func TestRestoreCommittedDegrades(t *testing.T) {
	const total = 400
	build := func(open bool) (*Graph, *limitedSource, *Collector) {
		src := &limitedSource{schema: incrSchema, total: total}
		if open {
			src.limit.Store(total)
		}
		sink := NewCollector("sink", incrSchema)
		g := NewGraph()
		id := g.AddSource(src)
		g.Add(sink, From(id))
		return g, src, sink
	}
	gRef, _, sinkRef := build(true)
	if err := gRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := sinkRef.Tuples()

	manifest := func(epoch int64) string { return fmt.Sprintf("dm%010d", epoch) }
	flip := func(t *testing.T, b snapshot.Backend, id string) {
		t.Helper()
		blob, err := b.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0x10
		if err := b.Put(id, blob); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		refuse string                                 // a write the first run's backend loses
		damage func(t *testing.T, b snapshot.Backend) // done to the backend after the kill
		landed int64                                  // the epoch the restore stages; 0 = cold start
		skips  []int64                                // the commits it reports walking past
	}{
		{name: "intact", landed: 3},
		{name: "corrupt snapshot at the newest commit", landed: 2, skips: []int64{3},
			damage: func(t *testing.T, b snapshot.Backend) { flip(t, b, snapshot.IDFor(3)) }},
		{name: "corrupt manifest at the newest commit", landed: 2, skips: []int64{3},
			damage: func(t *testing.T, b snapshot.Backend) { flip(t, b, manifest(3)) }},
		// Each epoch restores on its own: damage below the newest commit
		// costs nothing.
		{name: "corrupt snapshot at the oldest commit", landed: 3,
			damage: func(t *testing.T, b snapshot.Backend) { flip(t, b, snapshot.IDFor(1)) }},
		{name: "corrupt snapshot at every commit", landed: 0, skips: []int64{3, 2, 1},
			damage: func(t *testing.T, b snapshot.Backend) {
				for e := int64(1); e <= 3; e++ {
					flip(t, b, snapshot.IDFor(e))
				}
			}},
		// The chain holds epoch 3, the log does not: persisted, never
		// committed. Nothing is corrupt, so nothing is skipped.
		{name: "manifest write refused", refuse: manifest(3), landed: 2},
		{name: "chain with no manifest at all", landed: 0,
			damage: func(t *testing.T, b snapshot.Backend) {
				for e := int64(1); e <= 3; e++ {
					if err := b.Delete(manifest(e)); err != nil {
						t.Fatal(err)
					}
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := snapshot.NewMemory()
			g1, src1, _ := build(false)
			runErr := make(chan error, 1)
			go func() { runErr <- g1.Run() }()
			dc1, _ := local(g1, flakyBackend{mem, func(id string) bool { return id == tc.refuse }})
			for _, stop := range []int64{250, 280, 310} {
				src1.limit.Store(stop)
				src1.waitPos(t, stop)
				epoch, err := dc1.CheckpointOnce(snapshot.CaptureFull)
				if refused := tc.refuse == manifest(epoch); (err != nil) != refused {
					t.Fatalf("epoch %d: err=%v, write refused=%v", epoch, err, refused)
				}
			}
			g1.Kill()
			if err := <-runErr; !errors.Is(err, ErrKilled) {
				t.Fatalf("killed run returned %v", err)
			}
			if tc.damage != nil {
				tc.damage(t, mem)
			}

			g2, _, sink2 := build(true)
			dc2, chain := local(g2, mem)
			ok, err := dc2.RestoreCommitted()
			if err != nil || ok != (tc.landed != 0) || dc2.CommittedEpoch() != tc.landed {
				t.Fatalf("RestoreCommitted: ok=%v err=%v at epoch %d, want epoch %d", ok, err, dc2.CommittedEpoch(), tc.landed)
			}
			deg := dc2.Degraded()
			if len(deg) != len(tc.skips) {
				t.Fatalf("degraded = %+v, want skips of %v", deg, tc.skips)
			}
			for i, sk := range deg {
				if sk.Epoch != tc.skips[i] || !errors.Is(sk.Err, snapshot.ErrCorruptSnapshot) {
					t.Fatalf("degraded = %+v, want typed skips of %v", deg, tc.skips)
				}
			}
			// Log and chain both end at the landed epoch: nothing orphaned,
			// nothing in the way of committing the next epoch again.
			log := snapshot.NewDistLog(mem)
			if eps, err := log.Epochs(); err != nil || (len(eps) == 0) != (tc.landed == 0) || (len(eps) > 0 && eps[len(eps)-1] != tc.landed) {
				t.Fatalf("log epochs = %v err=%v, want the newest %d", eps, err, tc.landed)
			}
			if latest, _, err := chain.LatestEpoch(); err != nil || latest != tc.landed {
				t.Fatalf("chain latest = %d err=%v, want %d", latest, err, tc.landed)
			}
			if err := log.Commit(&snapshot.DistManifest{Epoch: tc.landed + 1,
				Parts: []snapshot.DistPart{{Part: "local", Epoch: tc.landed + 1}}}); err != nil {
				t.Fatalf("re-commit of epoch %d: %v", tc.landed+1, err)
			}
			if err := g2.Run(); err != nil {
				t.Fatal(err)
			}
			got := sink2.Tuples()
			if len(got) != len(want) {
				t.Fatalf("recovered run recorded %d tuples, want %d", len(got), len(want))
			}
			for i := range want {
				if !slices.EqualFunc(got[i].Values, want[i].Values, stream.Value.Equal) || got[i].Seq != want[i].Seq {
					t.Fatalf("tuple %d diverged: %v vs %v", i, got[i], want[i])
				}
			}
		})
	}
}

// unlistable is a backend whose directory cannot be read.
type unlistable struct{ *snapshot.Memory }

func (unlistable) List() ([]string, error) { return nil, errors.New("i/o error") }

// TestFailedRestoreRefusesFollowers: a restore that failed has designated no
// epoch. Answering a handshake then would tell the follower "restore from
// 0", and it would obey by emptying its chain.
func TestFailedRestoreRefusesFollowers(t *testing.T) {
	g := NewGraph()
	g.Add(NewCollector("sink", oneInt), From(g.AddSource(NewSliceSource("src", oneInt, intTuple(1)))))
	dc, _ := local(g, unlistable{snapshot.NewMemory()})
	if _, err := dc.RestoreCommitted(); err == nil {
		t.Fatal("restore over an unreadable log succeeded")
	}
	if _, err := dc.AddFollower(nil); err == nil || !strings.Contains(err.Error(), "RestoreCommitted") {
		t.Fatalf("AddFollower after a failed restore: %v, want a refusal", err)
	}
}
