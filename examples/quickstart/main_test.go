package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestQuickstart: the allocation shrinks when the neighbour arrives; run
// itself fails unless every byte written across the remap reads back.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	before, after := -1, -1
	for _, line := range strings.Split(out.String(), "\n") {
		fmt.Sscanf(line, "arbiter assigned %d I/O nodes", &before)
		fmt.Sscanf(line, "after the neighbour arrived our allocation is %d I/O nodes", &after)
	}
	if after < 0 || after >= before {
		t.Errorf("allocation went %d → %d I/O nodes, want it to shrink:\n%s", before, after, out.String())
	}
}
