package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// opVars stands in for an operator's exported vars: two counters, read by
// their closures at scrape time as a Select's or a Map's are.
func opVars(in, out *atomic.Int64) []Var {
	return []Var{
		{Name: "pace_op_tuples_in_total", Help: "Tuples delivered to the operator.", Value: in.Load},
		{Name: "pace_op_tuples_out_total", Help: "Tuples the operator emitted.", Value: out.Load},
	}
}

// TestRegistryConcurrentScrape hammers one registry from N writer
// goroutines standing in for operators counting into their vars while
// /metrics-style scrapes run concurrently — the -race proof that scraping
// never tears or locks out the hot path.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	type counters struct{ in, out atomic.Int64 }
	cs := make([]*counters, writers)
	for i := range cs {
		cs[i] = &counters{}
		r.RegisterNode(i, "node", opVars(&cs[i].in, &cs[i].out))
	}
	r.SetEdges(func() []EdgeStat {
		return []EdgeStat{{Producer: "a", Consumer: "b", Tuples: 1}}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *counters) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.in.Add(7)
				c.out.Add(3)
			}
		}(c)
	}
	var out bytes.Buffer
	for i := 0; i < 50; i++ {
		out.Reset()
		r.WritePrometheus(&out)
		if !strings.Contains(out.String(), "pace_op_tuples_in_total") {
			t.Fatalf("scrape %d missing operator vars:\n%s", i, out.String())
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
	r.RegisterNode(0, `sel "fast"`, opVars(new(atomic.Int64), new(atomic.Int64)))
	var out bytes.Buffer
	r.WritePrometheus(&out)
	if want := `op="sel \"fast\""`; !strings.Contains(out.String(), want) {
		t.Fatalf("scrape lacks %s:\n%s", want, out.String())
	}
}
