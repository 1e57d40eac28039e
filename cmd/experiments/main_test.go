package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/forge"
)

// TestRunAllTargets exercises every experiment the CLI can dispatch (with
// a small campaign size) so the wiring cannot rot silently.
func TestRunAllTargets(t *testing.T) {
	targets := []string{"table1", "figure1", "distribution", "headlines", "figure2",
		"figure3", "figure5", "figure6", "table4", "figure7", "figure8",
		"figure9", "timing", "ablation", "robustness", "curveerror"}
	s := &session{sets: 25}
	for _, name := range targets {
		if err := s.run(name, io.Discard); err != nil {
			t.Errorf("run(%q): %v", name, err)
		}
	}
	if err := s.run("bogus", io.Discard); err == nil {
		t.Error("unknown target should fail")
	}
}

// TestCampaignTablesIdenticalAcrossWorkers: the Figure 2, Figure 3 and
// headline tables come from one campaign per invocation and are
// byte-identical for every worker count.
func TestCampaignTablesIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		var buf strings.Builder
		s := &session{sets: 40, workers: workers}
		var camp *forge.Campaign
		for _, name := range []string{"figure2", "figure3", "headlines"} {
			if err := s.run(name, &buf); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			if camp == nil {
				camp = s.fig2.Campaign
			} else if s.fig2.Campaign != camp {
				t.Errorf("workers=%d %s: the campaign ran again", workers, name)
			}
		}
		return buf.String()
	}
	serial := render(1)
	for _, frag := range []string{"Figure 2", "Figure 3", "headline statistics (40 sets)"} {
		if !strings.Contains(serial, frag) {
			t.Fatalf("campaign output lacks %q:\n%s", frag, serial)
		}
	}
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != serial {
			t.Errorf("workers=%d output differs from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}
