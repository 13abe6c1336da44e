package main

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/stream"
)

var explainSchema = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

// explainFor returns what `paceql -explain` prints for the query over a
// stream read the way paceql reads its input.
func explainFor(t *testing.T, query string) string {
	t.Helper()
	cat := plan.Catalog{"traffic": exec.NewReaderSource("traffic", explainSchema, strings.NewReader(""))}
	var out strings.Builder
	if err := run(query, cat, true, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestExplainStandaloneKernel pins the standalone-kernel rendering: a
// stateless chain feeding a plain sink becomes a standalone fused node whose
// kernel line lists its constituents, and the sink runs on its goroutine.
func TestExplainStandaloneKernel(t *testing.T) {
	got := explainFor(t, "SELECT speed, segment FROM traffic WHERE speed >= 50")
	want := ` 0: source traffic
 1: fused(where+project) <- traffic[0]
      kernel: select where [speed>=50] | project project -> (speed:float, segment:int)
 2: stdout <- fused(where+project)[0] (chained)
`
	if got != want {
		t.Fatalf("standalone explain mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainPrefixKernel pins the prefix-kernel rendering: the same
// stateless prefix feeding a GROUP BY aggregate is absorbed into the
// aggregate's input port, and the kernel line names the prefix per input and the
// stateful consumer it hands survivors to — visibly distinct from a
// standalone kernel.
func TestExplainPrefixKernel(t *testing.T) {
	got := explainFor(t, "SELECT segment, AVG(speed) FROM traffic WHERE speed >= 50 GROUP BY segment WINDOW 1 MINUTE ON ts")
	want := ` 0: source traffic
 1: fused(where=>aggregate) <- traffic[0]
      kernel: prefix in0{select where [speed>=50]} => aggregate
 2: stdout <- fused(where=>aggregate)[0] (chained)
`
	if got != want {
		t.Fatalf("prefix explain mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}
