package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec mirrors BENCHMARK.json, the contract this benchmark reports
// against: workload and metric names, units, directions and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// root is the root of the checkout: the working directory or, under go test,
// the directory above. loadSpec finds it.
var root = "."

// loadSpec reads BENCHMARK.json from the root of the checkout.
func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		root = ".."
		raw, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// printMetrics prints every metric of a result by name, with its unit.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
