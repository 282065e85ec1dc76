package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// BENCHMARK.json at the repository root is the contract later changes are
// judged by; the harness must print exactly the metrics it names, with
// its units, and -selfcheck must apply its bounds.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloads[i].name)
		}
	}
	better := map[bool]string{true: "lower", false: "higher"}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics, harness has %d", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range doc.EndToEnd {
		h := endToEndMetrics[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != better[h.lower] || m.Bound != h.bound {
			t.Errorf("end-to-end metric %d is %+v, harness has %+v", i, m, h)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics, harness has %d", len(doc.PerLayer), len(perLayerMetrics))
	}
	for i, m := range doc.PerLayer {
		h := perLayerMetrics[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != better[h.lower] {
			t.Errorf("per-layer metric %d is %+v, harness has %+v", i, m, h)
		}
	}
}
