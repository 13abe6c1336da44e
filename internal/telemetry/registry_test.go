package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestNodeMetricsAllocs pins the zero-allocation contract for the
// steady-state counter path: everything a node runner touches per page —
// counter adds and batch-size observations — must not allocate.
func TestNodeMetricsAllocs(t *testing.T) {
	nm := &NodeMetrics{}
	if n := testing.AllocsPerRun(200, func() {
		nm.TuplesIn.Add(32)
		nm.PunctsIn.Add(1)
		nm.Batches.Add(1)
		nm.Rechecks.Add(1)
		nm.BatchSize.Observe(32)
	}); n != 0 {
		t.Fatalf("steady-state counter path allocates %.1f per run, want 0", n)
	}
}

// TestRegistryConcurrentScrape hammers one registry from N writer
// goroutines standing in for node runners while /metrics-style scrapes run
// concurrently — the -race proof that scraping never tears or locks out
// the hot path.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	nms := make([]*NodeMetrics, writers)
	for i := range nms {
		nms[i] = &NodeMetrics{}
		r.RegisterNode(i, "node", nms[i], nil)
	}
	r.SetEdges(func() []EdgeStat {
		return []EdgeStat{{Producer: "a", Consumer: "b", Tuples: 1}}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, nm := range nms {
		wg.Add(1)
		go func(nm *NodeMetrics) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				nm.TuplesIn.Add(7)
				nm.PunctsIn.Add(1)
				nm.Batches.Add(1)
				nm.FeedbackIn.Add(1)
				nm.BatchSize.Observe(7)
			}
		}(nm)
	}
	var out bytes.Buffer
	for i := 0; i < 50; i++ {
		out.Reset()
		r.WritePrometheus(&out)
		if !strings.Contains(out.String(), "pace_node_tuples_in_total") {
			t.Fatalf("scrape %d missing node counters:\n%s", i, out.String())
		}
	}
	close(stop)
	wg.Wait()
	r.WritePrometheus(io.Discard)
}

// TestPrometheusLabelValuesEscapedOnce: the exposition format escapes
// backslash, double quote and newline in a label value, each exactly once,
// and defines no other escape — a scraper must read back the name it was
// given.
func TestPrometheusLabelValuesEscapedOnce(t *testing.T) {
	for _, tc := range []struct{ value, want string }{
		{`agg`, `{op="agg"}`},
		{`sel "fast"`, `{op="sel \"fast\""}`},
		{`a\b`, `{op="a\\b"}`},
		{"two\nlines", `{op="two\nlines"}`},
		{"tab\there é", "{op=\"tab\there é\"}"},
	} {
		if got := renderLabels(map[string]string{"op": tc.value}); got != tc.want {
			t.Errorf("label value %q renders %s, want %s", tc.value, got, tc.want)
		}
	}
	r := NewRegistry()
	r.RegisterNode(0, `sel "fast"`, &NodeMetrics{}, nil)
	var out bytes.Buffer
	r.WritePrometheus(&out)
	if want := `op="sel \"fast\""`; !strings.Contains(out.String(), want) {
		t.Fatalf("scrape lacks %s:\n%s", want, out.String())
	}
}
