package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestDistSuperviseKill9 is the real two-process acceptance test: the
// supervised coordinator/follower pair runs over loopback TCP, the
// coordinator SIGKILLs itself mid-epoch after two committed manifests, the
// supervisor restarts the pair, both subplans restore from the last
// committed distributed cut, and the follower's canonical result digest is
// identical to an uninterrupted pair's.
func TestDistSuperviseKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs two supervised processes")
	}
	bin := binary(t)

	run := func(name string, extra ...string) string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), name)
		args := append([]string{"-dist", "-dir", dir, "-minutes", "20"}, extra...)
		cmd := exec.Command(bin, args...)
		done := make(chan struct{})
		var out []byte
		var err error
		go func() { out, err = cmd.CombinedOutput(); close(done) }()
		select {
		case <-done:
		case <-time.After(120 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("%s run timed out", name)
		}
		if err != nil {
			t.Fatalf("%s run: %v\n%s", name, err, out)
		}
		return string(out)
	}

	clean := run("clean")
	crash := run("crash", "-crash-after-epochs", "2")

	results := regexp.MustCompile(`(?m)^RESULTS .*$`)
	cleanRes := results.FindAllString(clean, -1)
	crashRes := results.FindAllString(crash, -1)
	if len(cleanRes) != 1 {
		t.Fatalf("clean run printed %d RESULTS lines:\n%s", len(cleanRes), clean)
	}
	if len(crashRes) != 1 {
		t.Fatalf("crashed run printed %d RESULTS lines (a crashed incarnation must not report partial results):\n%s", len(crashRes), crash)
	}
	if cleanRes[0] != crashRes[0] {
		t.Fatalf("crashed-then-restored digest %q != clean digest %q", crashRes[0], cleanRes[0])
	}
	for _, want := range []string{
		"CHILD self-destructing",              // the kill -9 actually happened
		"COORD restored from committed epoch", // both parts restored the committed cut
		"FOLLOW restored from committed epoch",
		"SUPERVISOR completed restarts=",
	} {
		if !strings.Contains(crash, want) {
			t.Errorf("crashed run log missing %q:\n%s", want, crash)
		}
	}
	if strings.Contains(clean, "restored from committed") {
		t.Error("clean run should cold start")
	}
}
