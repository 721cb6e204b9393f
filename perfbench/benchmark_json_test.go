package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// ungatedWorkloads lists the workloads the program runs that BENCHMARK.json
// leaves out, because they are not steady enough to gate a change on
// (README.md gives the measurements).
var ungatedWorkloads = []string{"ingest-fleet"}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json's workload
// and metric names in step with what the program runs and prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	names = append(names, ungatedWorkloads...)
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads plus ungated %v, program runs %v", names, want)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", spec.PerLayer, perLayer)
	}
}
