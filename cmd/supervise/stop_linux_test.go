package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestStopLeavesNoChildren starts the supervisor as CI's telemetry smoke
// does, serving telemetry on a free port, and sends it SIGTERM once the
// coordinating child answers /metrics. Within 2 s no child may be alive and
// the port must refuse connections: a stopped supervisor leaves no part of
// its plan running.
func TestStopLeavesNoChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a supervised process")
	}
	bin := binary(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var out bytes.Buffer
	sup := exec.Command(bin, "-dir", t.TempDir(), "-minutes", "240", "-telemetry-addr", addr)
	sup.Stdout, sup.Stderr = &out, &out
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- sup.Wait() }()
	var children []int
	t.Cleanup(func() {
		for _, pid := range children {
			syscall.Kill(pid, syscall.SIGKILL)
		}
		sup.Process.Kill()
		<-exited
	})

	for deadline := time.Now().Add(time.Minute); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no /metrics on %s within a minute:\n%s", addr, out.String())
		}
	}
	children = childrenOf(t, sup.Process.Pid)
	if len(children) == 0 {
		t.Fatal("the supervisor serves telemetry but has no child")
	}

	if err := sup.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var alive []int
		for _, pid := range children {
			if syscall.Kill(pid, 0) == nil {
				alive = append(alive, pid)
			}
		}
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			conn.Close()
		}
		if len(alive) == 0 && err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("2 s after SIGTERM: children %v of %v alive, port %s accepts: %v", alive, children, addr, err == nil)
		}
	}
}

// childrenOf lists the processes pid started, from every thread of it.
func childrenOf(t *testing.T, pid int) []int {
	t.Helper()
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", pid))
	if err != nil || len(files) == 0 {
		t.Fatalf("no children files for %d: %v", pid, err)
	}
	var kids []int
	for _, f := range files {
		b, _ := os.ReadFile(f)
		for _, field := range strings.Fields(string(b)) {
			kid, _ := strconv.Atoi(field)
			kids = append(kids, kid)
		}
	}
	return kids
}
