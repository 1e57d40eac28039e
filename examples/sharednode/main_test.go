package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestSharednode: with one node reserved for sharing, the aggregate beats
// plain MCKP's on the same pool.
func TestSharednode(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	var aggregates []float64
	for _, line := range strings.Split(out.String(), "\n") {
		var mbps float64
		if n, _ := fmt.Sscanf(line, "  aggregate: %f MB/s", &mbps); n == 1 {
			aggregates = append(aggregates, mbps)
		}
	}
	if len(aggregates) != 2 || aggregates[1] <= aggregates[0] {
		t.Errorf("aggregates (plain MCKP, shared) = %v, want the shared one higher:\n%s", aggregates, out.String())
	}
}
