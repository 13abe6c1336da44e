package main

import (
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestFuzzSmoke runs a bounded slice of the seeded chaos fuzzer end to
// end: two seeds, both modes, real subprocesses, real kills, and the
// chain-aware verification replaying every retained epoch and every
// committed manifest. It is the acceptance test for the -fuzz mode itself;
// nightly CI runs many more seeds.
func TestFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs supervised chaos subprocesses")
	}
	bin := binary(t)
	dir := t.TempDir()
	cmd := exec.Command(bin, "-fuzz", "-dir", dir,
		"-seed", "1", "-fuzz-seeds", "2",
		"-minutes", "8", "-ack-timeout", "2s", "-max-restarts", "8")
	done := make(chan struct{})
	var out []byte
	var err error
	go func() { out, err = cmd.CombinedOutput(); close(done) }()
	select {
	case <-done:
	case <-time.After(300 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("fuzz run timed out")
	}
	if err != nil {
		t.Fatalf("fuzz: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "FUZZ PASS 4 runs (2 seeds x 2 modes, base seed 1)") {
		t.Errorf("missing final PASS summary:\n%s", s)
	}
	for _, want := range []string{
		"FUZZ clean single digest: RESULTS",
		"FUZZ clean dist digest: RESULTS",
		"FUZZ PASS seed=1 mode=single",
		"FUZZ PASS seed=2 mode=dist",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestFuzzScheduleDeterminism: the -fuzz repro contract hangs on the
// schedule being a pure function of the seed, and on the supervisor
// forwarding the same seed and incarnation to every child. Spot-check the
// derivation the children perform.
func TestFuzzScheduleDeterminism(t *testing.T) {
	o := options{chaosSeed: 7, dist: true}
	a, b := o.chaosPlan(), o.chaosPlan()
	if a.String() != b.String() {
		t.Fatalf("same options derived different schedules:\n%s\n%s", a, b)
	}
	// A child sees the seed and -dist forwarded, whichever part it runs; it
	// must land on the same plan.
	args := strings.Join(o.childArgs("follow"), " ")
	for _, want := range []string{"-role follow", "-dist", "-chaos-seed 7"} {
		if !strings.Contains(args, want) {
			t.Fatalf("child args %q lack %q", args, want)
		}
	}
	c := options{chaosSeed: 7, dist: true, role: "follow"}
	if got := c.chaosPlan(); got.String() != a.String() {
		t.Fatalf("child derived a different schedule than its supervisor:\n%s\n%s", got, a)
	}
	if off := (options{}).chaosPlan(); off != nil {
		t.Fatalf("chaos off must derive a nil plan, got %s", off)
	}
}
