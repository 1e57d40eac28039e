package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machine this benchmark runs on is a virtual one that shares its
// cores. /proc/stat says how many clock ticks the hypervisor gave to
// somebody else while a virtual CPU of this machine wanted to run
// (steal). Measured over 94 runs: light steal (under 10 %) moves the
// medians by less than 5 %, but the host's other tenants also run jobs
// that take 10–40 % for one to four minutes, several times an hour, and
// under those a 4 MiB op takes 25–45 % longer at every quantile. No
// statistic inside a run undoes that, so an untraced run does not measure
// while it lasts: it waits, within a budget, for the steal to pass.

const (
	// stealHeavy is the steal share above which an epoch is measured again.
	stealHeavy = 0.10
	// stealBudget is how long one run may spend waiting and on epochs it
	// then discards. A run under steal that outlasts it reports what it
	// got, with a warning.
	stealBudget = 45 * time.Second
	// A probe keeps every CPU busy for probeBurn (an idle machine has
	// nothing stolen from it), then the gate sleeps for probeGap.
	probeBurn = 200 * time.Millisecond
	probeGap  = 800 * time.Millisecond
)

// cpuTicks is the machine-wide CPU time, in clock ticks since boot.
type cpuTicks struct {
	stolen float64 // wanted by this machine, given to another
	busy   float64 // spent running this machine's code
}

// parseCPUTicks reads the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal guest guest_nice.
// Guest time is already part of user time. A line without a steal column
// yields zeros: a machine nothing is known to be stolen from.
func parseCPUTicks(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, x := range f[1:9] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return cpuTicks{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.stolen = v
		default:
			t.busy += v
		}
	}
	return t
}

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPUTicks(line)
}

// stealSince is the share of the CPU time this machine asked for since
// the earlier reading that the hypervisor withheld.
func (t cpuTicks) stealSince(earlier cpuTicks) float64 {
	stolen, busy := t.stolen-earlier.stolen, t.busy-earlier.busy
	if stolen <= 0 || stolen+busy <= 0 {
		return 0
	}
	return stolen / (stolen + busy)
}

// stealGate holds one run's waiting budget.
type stealGate struct {
	left   time.Duration
	waited time.Duration
	// Seams for the test.
	read  func() cpuTicks
	burn  func(time.Duration)
	sleep func(time.Duration)
}

func newStealGate() *stealGate {
	return &stealGate{left: stealBudget, read: readCPUTicks, burn: burnAllCPUs, sleep: time.Sleep}
}

// heavy reports whether a window with this steal share is to be measured
// again; never once the budget is spent.
func (g *stealGate) heavy(share float64) bool { return share > stealHeavy && g.left > 0 }

// spend charges a discarded epoch to the budget.
func (g *stealGate) spend(d time.Duration) {
	g.left -= d
	g.waited += d
}

// wait returns when a probe finds the machine's CPUs its own, or when the
// budget is spent.
func (g *stealGate) wait() {
	for g.left > 0 {
		before := g.read()
		g.burn(probeBurn)
		if g.read().stealSince(before) <= stealHeavy {
			return
		}
		g.sleep(probeGap)
		g.spend(probeBurn + probeGap)
	}
}

// burnAllCPUs spins on every CPU the runtime may use for d.
func burnAllCPUs(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
			}
		}()
	}
	wg.Wait()
}
