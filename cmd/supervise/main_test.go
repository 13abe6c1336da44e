package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// binDir holds the command, built once for the tests that run it as a
// process and removed after them.
var binDir string

func TestMain(m *testing.M) {
	var err error
	if binDir, err = os.MkdirTemp("", "supervise-test"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

var build = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "supervise")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("build: %v\n%s", err, out)
	}
	return bin, nil
})

// binary returns the built command.
func binary(t *testing.T) string {
	t.Helper()
	bin, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}
