package main

import (
	"errors"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/stream"
)

var errDiskFull = errors.New("disk full")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestRunReportsFailedFlush: a result small enough to sit in the encoder's
// buffer meets the broken writer only at the final flush, and that error
// must come back (main exits 1 on it) instead of a truncated success.
func TestRunReportsFailedFlush(t *testing.T) {
	src := exec.NewSliceSource("traffic", explainSchema,
		stream.NewTuple(stream.Int(1), stream.TimeMicros(0), stream.Float(60)))
	err := run("SELECT speed, segment FROM traffic WHERE speed >= 50",
		plan.Catalog{"traffic": src}, true, false, failingWriter{})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("run = %v, want the flush error", err)
	}
}
