package main

import (
	"errors"
	"sync"
	"testing"
	"time"

	execpkg "repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/snapshot"
)

// TestLocalPlanIsTheProtocolWithZeroFollowers cuts, kills and restores
// cmd/supervise's one logical plan twice — deployed as one part whose
// coordinator has no followers, and placed on two parts — and both must
// recover to the rows an uninterrupted run produces: a single-process run is
// the distributed protocol with nobody to wait for, not a second path.
func TestLocalPlanIsTheProtocolWithZeroFollowers(t *testing.T) {
	policy := execpkg.CheckpointPolicy{Interval: 10 * time.Millisecond, Retain: 3}
	bRef, sinkRef := buildPlan(options{parts: 2, minutes: 10, fuse: true})
	if err := bRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := digestLine(sinkRef)

	for _, dist := range []bool{false, true} {
		o := options{parts: 2, minutes: 10, fuse: true, dist: dist}
		// The stores outlive an incarnation: the second one restores what
		// the first committed.
		stores := map[string]snapshot.Backend{}
		// run deploys every part of a fresh build over in-process pipes and
		// runs it to its end, or to its death once killAt epochs are
		// committed (0 = never).
		run := func(killAt int64) (restored, died int64, digest string) {
			t.Helper()
			b, sink := buildPlan(o)
			tr := plan.Pipes()
			deps := make([]*plan.Deployment, len(b.Parts()))
			errs := make(chan error, len(deps))
			for i, part := range b.Parts() {
				if stores[part] == nil {
					stores[part] = snapshot.NewMemory()
				}
				store := stores[part]
				go func() {
					var err error
					deps[i], err = plan.Deploy(b, part, store, tr)
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
				go func() { defer wg.Done(); runErrs[i], _ = d.Run(policy, 0) }()
			}
			if killAt > 0 {
				for deadline := time.Now().Add(30 * time.Second); deps[0].Committed() < killAt; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("never committed epoch %d (at %d)", killAt, deps[0].Committed())
					}
				}
				for _, d := range deps {
					d.Kill()
				}
			}
			wg.Wait()
			// A killed part fails: its peers see the links drop, never an
			// end of stream.
			for i, err := range runErrs {
				if (err != nil) != (killAt > 0) || (i == 0 && killAt > 0 && !errors.Is(err, execpkg.ErrKilled)) {
					t.Fatalf("dist=%v: runs returned %v, killed=%v", dist, runErrs, killAt > 0)
				}
			}
			return deps[0].Restored, deps[0].Committed(), digestLine(sink)
		}

		_, died, _ := run(3)
		at, _, got := run(0)
		if at < 3 || at > died {
			t.Fatalf("dist=%v: restored from epoch %d, the first incarnation committed 3..%d", dist, at, died)
		}
		if got != want {
			t.Errorf("dist=%v: recovered %q, the uninterrupted run %q", dist, got, want)
		}
	}
}
