package main

import (
	"io"
	"testing"
)

// TestRunAllTargets exercises every experiment the CLI can dispatch (with
// a small campaign size) so the wiring cannot rot silently.
func TestRunAllTargets(t *testing.T) {
	targets := []string{"table1", "figure1", "distribution", "headlines", "figure2",
		"figure3", "figure5", "figure6", "table4", "figure7", "figure8",
		"figure9", "timing", "ablation", "robustness", "curveerror"}
	for _, name := range targets {
		if err := run(name, 25, 0, io.Discard); err != nil {
			t.Errorf("run(%q): %v", name, err)
		}
	}
	if err := run("bogus", 25, 0, io.Discard); err == nil {
		t.Error("unknown target should fail")
	}
}
