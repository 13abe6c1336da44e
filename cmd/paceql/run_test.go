package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// TestRunCountsTiesAtAPunctuation runs a windowed COUNT over input whose
// first window ends in three reports at one timestamp. The source's progress
// punctuation comes after a tuple and promises only what ordered input does —
// nothing more below its timestamp — so no report of the tie arrives after a
// punctuation that closed its window, whatever the spacing.
func TestRunCountsTiesAtAPunctuation(t *testing.T) {
	file := filepath.Join(t.TempDir(), "traffic.csv")
	input := "7,1970-01-01T00:00:59.999999Z,50\n" +
		"7,1970-01-01T00:00:59.999999Z,51\n" +
		"7,1970-01-01T00:00:59.999999Z,52\n" +
		"7,1970-01-01T00:01:00.000000Z,53\n"
	if err := os.WriteFile(file, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 2, 3, 100} {
		name, src, closer, err := parseStreamSpec("traffic=segment:int,ts:time,speed:float@"+file, every)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err = run("SELECT segment, COUNT(speed) FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts",
			plan.Catalog{name: src}, true, false, &out)
		_ = closer()
		if err != nil {
			t.Fatal(err)
		}
		const want = "7,1970-01-01T00:00:00.000000Z,3\n7,1970-01-01T00:01:00.000000Z,1\n"
		if got := out.String(); got != want {
			t.Errorf("punctuation every %d tuples: got\n%swant\n%s", every, got, want)
		}
	}
}
