package livestack

// Control-plane loop tests: the one goroutine that sweeps the prober,
// applies its events and steps the scaler — its lifecycle across a crash,
// a recovery and Close, the sweep-counted scaler windows, and the ping
// deadline Start resolves for the prober and the recovery re-probe alike.

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/faultnet"
	"repro/internal/ion"
	"repro/internal/nodestate"
	"repro/internal/testkit"
)

// controlLoops waits until want goroutines run the control-plane loop. A
// loop that was stopped has returned, but its goroutine may still be on
// the way out for a moment.
func controlLoops(t *testing.T, what string, want int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	testkit.Eventually(t, fmt.Sprintf("%s to leave %d control-plane loops running", what, want), func() bool {
		n := runtime.Stack(buf, true)
		return strings.Count(string(buf[:n]), ".(*Stack).runControlPlane(") == want
	})
}

// TestControlPlaneLoopStopsAndRecoversOnce: a probed, scaled stack runs
// one control-plane loop. CrashControlPlane and Close stop it within one
// sweep; each RecoverControlPlane starts exactly one again, which sweeps;
// after Close the goroutine count is back where it was before Start.
func TestControlPlaneLoopStopsAndRecoversOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	st, err := Start(Config{
		IONs:           3,
		JournalDir:     t.TempDir(),
		HealthInterval: 20 * time.Millisecond,
		Elastic:        &elastic.Config{Min: 3, Max: 3, UpWatermark: 1, DownWatermark: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep := st.cfg.HealthInterval + st.cfg.HealthTimeout // the longest one sweep can take
	probes := st.Telemetry.Counter("health_probes_total")
	sweeps := func(what string) {
		t.Helper()
		from := probes.Value()
		testkit.Eventually(t, what, func() bool { return probes.Value() > from })
	}
	stopsWithinASweep := func(what string, stop func()) {
		t.Helper()
		start := time.Now()
		stop()
		if took := time.Since(start); took > sweep {
			t.Errorf("%s took %v to stop the loop, more than one sweep (%v)", what, took, sweep)
		}
		controlLoops(t, what, 0)
	}

	controlLoops(t, "Start", 1)
	sweeps("the first sweep")
	for round := 1; round <= 2; round++ {
		stopsWithinASweep("CrashControlPlane", func() {
			if err := st.CrashControlPlane(); err != nil {
				t.Fatal(err)
			}
		})
		if err := st.RecoverControlPlane(); err != nil {
			t.Fatalf("recovery %d: %v", round, err)
		}
		controlLoops(t, fmt.Sprintf("recovery %d", round), 1)
		sweeps(fmt.Sprintf("a sweep after recovery %d", round))
	}
	stopsWithinASweep("Close", st.Close)
	testkit.Eventually(t, fmt.Sprintf("goroutines back to the %d before Start", base), func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// gatedBackend holds every write until open closes, so the writes sent
// meanwhile queue up in the daemon's scheduler.
type gatedBackend struct {
	ion.Backend
	open chan struct{}
}

func (g *gatedBackend) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	<-g.open
	return g.Backend.WriteAs(writer, path, off, p)
}

// TestScalerStepsOncePerSweep drives the control plane's step by hand (the
// loop's own ticker is an hour away): the scaler ticks once per sweep, so
// its windows count sweeps. One hot sweep followed by idle ones never
// reaches UpSustain — the hot sample is read once, by the tick of its own
// sweep — and an idle pool drains on exactly the DownSustain-th idle sweep.
func TestScalerStepsOncePerSweep(t *testing.T) {
	const upSustain, downSustain = 2, 4
	open := make(chan struct{})
	st, err := Start(Config{
		IONs: 2, Scheduler: "FIFO", ChunkSize: 4096, Dispatchers: 1, PoolSize: 8,
		HealthInterval: time.Hour, HealthTimeout: time.Second,
		Elastic: &elastic.Config{
			Min: 1, Max: 3, UpWatermark: 1, DownWatermark: 0.2,
			UpSustain: upSustain, DownSustain: downSustain,
		},
		WrapBackend: func(_ int, b ion.Backend) ion.Backend { return &gatedBackend{Backend: b, open: open} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	provisions := st.Telemetry.Counter("elastic_provisions_started_total")
	drains := st.Telemetry.Counter("elastic_drains_started_total")

	// One hot sweep: six writes held at the gate leave at least four queued
	// behind the two that dispatched, an average depth of two or more.
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "hot")); err != nil {
		t.Fatal(err)
	}
	c, err := st.NewClient("hot")
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitForAllocation(c, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/hot"); err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for i := 0; i < 6; i++ {
		writers.Add(1)
		go func(off int64) {
			defer writers.Done()
			if _, err := c.Write("/hot", off, make([]byte, 4096)); err != nil {
				t.Error(err)
			}
		}(int64(i) * 4096)
	}
	testkit.Eventually(t, "four writes queued", func() bool {
		depth := 0
		for _, d := range st.daemons() {
			depth += d.QueueDepth()
		}
		return depth >= 4
	})
	st.step()
	if load := st.Health.Load(); len(load) != 2 || load[st.Addrs[0]]+load[st.Addrs[1]] < 4 {
		t.Fatalf("the hot sweep sampled %v, want both nodes at a total depth of 4 or more", load)
	}
	close(open)
	writers.Wait()
	if err := st.Arbiter.JobFinished("hot"); err != nil {
		t.Fatal(err)
	}

	for idle := 1; idle <= downSustain; idle++ {
		st.step()
		if got := provisions.Value(); got != 0 {
			t.Fatalf("idle sweep %d: %d provisions after one hot sweep (UpSustain %d)", idle, got, upSustain)
		}
		want := int64(0)
		if idle == downSustain {
			want = 1
		}
		if got := drains.Value(); got != want {
			t.Fatalf("idle sweep %d: %d drains started, want %d (DownSustain %d)", idle, got, want, downSustain)
		}
	}
}

// TestProbeDeadlineResolvedOnce: Start resolves the ping deadline once —
// half the probe interval, floored at 100ms, unless HealthTimeout is set —
// and both the prober and RecoverControlPlane's re-probe read that value:
// at a 100ms interval, re-probing a wedged member costs 100ms, not the
// 500ms health.Check picks for a caller that set none.
func TestProbeDeadlineResolvedOnce(t *testing.T) {
	for _, tc := range []struct {
		interval, timeout, want time.Duration
	}{
		{100 * time.Millisecond, 0, 100 * time.Millisecond},
		{time.Second, 0, 500 * time.Millisecond},
		{4 * time.Second, 0, 2 * time.Second},
		{100 * time.Millisecond, 3 * time.Second, 3 * time.Second},
	} {
		st, err := Start(Config{IONs: 1, HealthInterval: tc.interval, HealthTimeout: tc.timeout})
		if err != nil {
			t.Fatal(err)
		}
		got := st.cfg.HealthTimeout
		st.Close()
		if got != tc.want {
			t.Errorf("HealthInterval %v, HealthTimeout %v: ping deadline %v, want %v", tc.interval, tc.timeout, got, tc.want)
		}
	}
	st := startStack(t, 1)
	if st.cfg.HealthTimeout != 0 {
		t.Errorf("an unprobed stack resolved a ping deadline of %v; the re-probe must keep health.Check's default", st.cfg.HealthTimeout)
	}

	wedge := faultnet.NewInjector(faultnet.Plan{})
	st, err := Start(Config{
		IONs: 3, JournalDir: t.TempDir(), HealthInterval: 100 * time.Millisecond,
		WrapListener: func(i int, ln net.Listener) net.Listener {
			if i == 0 {
				return faultnet.WrapListener(ln, wedge)
			}
			return ln
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	wedge.Set(faultnet.Plan{Kind: faultnet.Hang})
	start := time.Now()
	err = st.RecoverControlPlane()
	took := time.Since(start)
	wedge.Set(faultnet.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if !nodeIn(st.Arbiter, st.Addrs[0], nodestate.Down) {
		t.Fatal("the wedged member answered its re-probe")
	}
	if took >= 400*time.Millisecond {
		t.Errorf("recovery re-probing one wedged member took %v: its ping waited longer than the 100ms deadline", took)
	}
}
