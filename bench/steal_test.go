package main

import (
	"testing"
	"time"
)

func TestParseCPUTicks(t *testing.T) {
	got := parseCPUTicks("cpu  100 5 50 1000 20 3 2 40 7 0")
	if want := (cpuTicks{stolen: 40, busy: 160}); got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	for _, line := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3 4 5 6 7", "cpu 1 2 x 4 5 6 7 8"} {
		if got := parseCPUTicks(line); got != (cpuTicks{}) {
			t.Errorf("%q parsed as %+v, want zeros", line, got)
		}
	}
	later := cpuTicks{stolen: 50, busy: 250}
	if share := later.stealSince(got); share != 0.1 {
		t.Errorf("steal share = %v, want 0.1 (10 of 100 ticks)", share)
	}
	if share := got.stealSince(got); share != 0 {
		t.Errorf("steal share over an empty window = %v, want 0", share)
	}
}

// scriptedGate is a gate whose probes see the given steal shares in turn.
func scriptedGate(budget time.Duration, shares ...float64) (g *stealGate, probes *int) {
	var now cpuTicks
	probes = new(int)
	g = &stealGate{left: budget, sleep: func(time.Duration) {}}
	g.read = func() cpuTicks { return now }
	g.burn = func(time.Duration) {
		share := 0.0
		if *probes < len(shares) {
			share = shares[*probes]
		}
		*probes++
		now.stolen += 100 * share
		now.busy += 100 * (1 - share)
	}
	return g, probes
}

func TestStealGateWaitsForQuiet(t *testing.T) {
	g, probes := scriptedGate(stealBudget, 0.35, 0.2, 0.02)
	g.wait()
	if *probes != 3 || g.waited != 2*(probeBurn+probeGap) {
		t.Errorf("%d probes, waited %v: want 3 probes and two waits", *probes, g.waited)
	}
	if !g.heavy(0.11) || g.heavy(0.10) {
		t.Error("heavy must hold above stealHeavy only")
	}
}

func TestStealGateGivesUpWithItsBudget(t *testing.T) {
	g, probes := scriptedGate(3*time.Second, 0.4, 0.4, 0.4, 0.4, 0.4)
	g.wait()
	if *probes != 3 || g.left > 0 {
		t.Errorf("%d probes, %v left: want the wait to end when the budget does", *probes, g.left)
	}
	if g.heavy(0.4) {
		t.Error("a spent gate must let every epoch through")
	}
}
