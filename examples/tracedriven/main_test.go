package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestTracedriven: the traced run yields a non-empty estimated curve, and
// MCKP gives mystery-app the I/O-node count where that curve peaks (0 is
// direct PFS access), so the estimate, not a default, drove the decision.
func TestTracedriven(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	scale := map[string]float64{"GB/s": 1e9, "MB/s": 1e6, "KB/s": 1e3, "B/s": 1}
	best, bestBW, got, neighbour := -1, 0.0, -1, -1
	for _, line := range strings.Split(out.String(), "\n") {
		var ions int
		var bw float64
		var unit string
		if n, _ := fmt.Sscanf(line, "  %d I/O nodes: %f %s", &ions, &bw, &unit); n == 3 && bw*scale[unit] > bestBW {
			best, bestBW = ions, bw*scale[unit]
		}
		fmt.Sscanf(line, "MCKP decision with 12 I/O nodes: mystery-app=%d, IOR-MPI=%d", &got, &neighbour)
	}
	if best < 0 || got != best || neighbour < 1 || got+neighbour > 12 {
		t.Errorf("MCKP gave mystery-app %d and IOR-MPI %d of 12 I/O nodes; the estimated curve peaks at %d:\n%s",
			got, neighbour, best, out.String())
	}
}
