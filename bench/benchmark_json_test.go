package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json is what the driver and later issues read; the tables in
// this package are what the program prints. They must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || len(doc.Command) == 0 {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, program has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the program prints %d", len(doc.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Bound == nil || got.Name != m.name || got.Unit != m.unit || got.Better != m.better || *got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: listed %+v, program has %+v", i, got, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		sawSetup = sawSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is missing")
	}

	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, the program prints %d (limit 128)", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != nil {
			t.Errorf("per-layer metric %d: listed %+v, program has %+v", i, got, m)
		}
		if seen[m.name] {
			t.Errorf("%s listed twice", m.name)
		}
		seen[m.name] = true
	}
}
