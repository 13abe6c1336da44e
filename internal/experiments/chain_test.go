package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/window"
)

// TestChainedNodesOfTheRunPlans pins which nodes run on their producers'
// goroutine (exec.Graph.Chained) in the plans the paper's experiments and the
// benchmark run: the three experiment plans and a Parallel(2) GROUP BY, as
// described and compiled. Their sources may block, and their fan-ins join
// chains, so an inline source or a one-chain fan-in changes none of them.
func TestChainedNodesOfTheRunPlans(t *testing.T) {
	plans := map[string]func(b *plan.Builder){
		"imputation": func(b *plan.Builder) { imputationPlan(b, ImputationConfig{Tuples: 200, Rate: 4000, Feedback: true}) },
		"speedmap":   func(b *plan.Builder) { speedmapPlan(b, SpeedmapConfig{Hours: 1, Scheme: F3, SwitchEveryMinutes: 2}) },
		"figure1b":   func(b *plan.Builder) { figure1bPlan(b, true, 1) },
		"groupby": func(b *plan.Builder) {
			src := &gen.TrafficSource{Config: gen.TrafficConfig{Segments: 4, DetectorsPerSegment: 2, Duration: 60_000_000, Seed: 1}}
			in := src.OutSchemas()[0]
			out := b.Source(src).
				Through(&op.Select{OpName: "where", Schema: in}).
				Parallel("part", 2, []string{"segment"}, func(s plan.Stream) plan.Stream {
					return s.Through(&op.Aggregate{OpName: "avg", In: in, Kind: core.AggAvg, TsAttr: 2, ValAttr: 3,
						GroupBy: []int{0}, Window: window.Tumbling(60_000_000)})
				})
			out.Into(exec.NewCollector("sink", out.Schema()))
		},
	}
	want := map[string][2]string{ // as described, compiled
		"imputation": {"impute speedmap-sink", "speedmap-sink"},
		"speedmap":   {"average map-viewer", "map-viewer"},
		"figure1b":   {"aggregate map", "map"},
		"groupby":    {"part.split sink", "sink"},
	}
	for name, build := range plans {
		for i, compile := range []bool{false, true} {
			b := plan.New()
			build(b)
			if compile {
				b.Compile()
			}
			if err := b.Err(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var chained []string
			for id := 0; id < b.Graph().NumNodes(); id++ {
				if nid := exec.NodeID(id); b.Graph().Chained(nid) {
					chained = append(chained, b.Graph().NameAt(nid))
				}
			}
			if got := strings.Join(chained, " "); got != want[name][i] {
				t.Errorf("%s (compiled %v): chained nodes %q, want %q", name, compile, got, want[name][i])
			}
		}
	}
}
