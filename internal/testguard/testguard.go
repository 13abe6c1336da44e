// Package testguard holds the two guards the runtime's concurrent tests
// share: a goroutine-leak gate for a package's TestMain, and a watchdog for
// code that must not hang. The runtime gives every node one goroutine and
// every transport a few; each must end when its plan or connection does, and
// a test that passes while leaving one parked — or that waits ten minutes for
// the package timeout to say so — hides exactly the bug a park/wake protocol
// can have.
//
//pace:allow-unreached shared test infrastructure: only tests call it
package testguard

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// grace is how long stragglers get to finish after the last test: a
// goroutine that has been told to stop but not yet scheduled is not a leak.
const grace = 5 * time.Second

// Main runs the package's tests and exits with their code, or with 1 and
// every goroutine's stack if more goroutines are alive afterwards than
// before.
func Main(m *testing.M) {
	before, _ := live()
	code := m.Run()
	if code == 0 {
		for deadline := time.Now().Add(grace); ; time.Sleep(time.Millisecond) {
			n, stacks := live()
			if n <= before {
				break
			}
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "testguard: %d goroutines before the tests, %d still alive after:\n%s\n", before, n, stacks)
				code = 1
				break
			}
		}
	}
	os.Exit(code)
}

// live counts the goroutines alive, and returns their stacks, leaving out
// os/signal's relay: `go test -fuzz` starts it and nothing ends it.
func live() (int, string) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if !strings.Contains(g, "os/signal.signal_recv") {
			n++
		}
	}
	return n, stacks
}

// Within runs f and stops the test binary, with every goroutine's stack, if
// f has not returned by the deadline: a lost wake-up shows as a hang, and a
// named failure after a minute beats the package's ten-minute timeout.
func Within(t *testing.T, d time.Duration, f func()) {
	watchdog := time.AfterFunc(d, func() {
		debug.SetTraceback("all")
		panic(fmt.Sprintf("%s: still running after %v", t.Name(), d))
	})
	defer watchdog.Stop()
	f()
}
