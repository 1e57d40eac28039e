package health

// Fail-slow (gray-failure) detection tests: the peer-relative scorer
// marks a node degraded when its median latency stands out against its
// peers, debounced over sweeps with hysteresis on recovery — and the
// whole latency plane is strictly opt-in.

import (
	"testing"
	"time"

	"repro/internal/latency"
	"repro/internal/nodestate"
	"repro/internal/telemetry"
)

// seedSketch loads n synthetic samples for addr. Real probe RTTs keep
// trickling into the same rings during the test (microseconds against a
// loopback server), but 60 seeded samples dominate the 64-slot window,
// so medians stay where the test puts them for the few sweeps it runs.
func seedSketch(sk *latency.Sketch, addr string, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		sk.Observe(addr, d)
	}
}

func TestDegradedDetectionAndRecovery(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sk := latency.NewSketch(0)
	var evs []Event
	reg := telemetry.New()
	pool := members(addrs...)
	p, err := New(Config{
		Pool:         pool,
		Timeout:      100 * time.Millisecond,
		SlowFactor:   4,
		SlowWindow:   2,
		SlowRecovery: 3,
		Latency:      sk,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// Two healthy peers at ~10ms, one node at 200ms: 20× the peer
	// median, far past the 4× factor and the 1ms default floor.
	seedSketch(sk, addrs[0], 10*time.Millisecond, 60)
	seedSketch(sk, addrs[1], 10*time.Millisecond, 60)
	seedSketch(sk, addrs[2], 200*time.Millisecond, 60)

	evs = append(evs, sweep(p, pool)...)
	if in(pool, addrs[2], nodestate.Degraded) {
		t.Fatal("one slow sweep must not mark degraded (SlowWindow=2)")
	}
	evs = append(evs, sweep(p, pool)...)
	if !in(pool, addrs[2], nodestate.Degraded) {
		t.Fatal("two slow sweeps should mark degraded")
	}
	if in(pool, addrs[0], nodestate.Degraded) || in(pool, addrs[1], nodestate.Degraded) {
		t.Fatal("healthy peers misread as degraded")
	}
	if len(evs) != 1 || evs[0] != (Event{addrs[2], nodestate.Slow}) {
		t.Fatalf("unexpected degradation events: %+v", evs)
	}
	if got := reg.Counter("health_degraded_transitions_total").Value(); got != 1 {
		t.Fatalf("health_degraded_transitions_total = %d, want 1", got)
	}
	// Degraded is not down and not overloaded: the other planes are
	// untouched — the node answers pings and reports an empty queue.
	if !isUp(pool, addrs[2]) {
		t.Fatal("degraded node must remain up")
	}
	if in(pool, addrs[2], nodestate.Overloaded) {
		t.Fatal("degraded node misread as overloaded")
	}

	// The fault lifts: the node's latency falls back in line with its
	// peers. Recovery needs SlowRecovery=3 clean sweeps (hysteresis).
	sk.Forget(addrs[2])
	seedSketch(sk, addrs[2], 10*time.Millisecond, 60)
	evs = append(evs, sweep(p, pool)...)
	evs = append(evs, sweep(p, pool)...)
	if !in(pool, addrs[2], nodestate.Degraded) {
		t.Fatal("two clean sweeps must not restore (SlowRecovery=3)")
	}
	evs = append(evs, sweep(p, pool)...)
	if in(pool, addrs[2], nodestate.Degraded) {
		t.Fatal("three clean sweeps should restore")
	}
	if len(evs) != 2 || evs[1] != (Event{addrs[2], nodestate.Restore}) {
		t.Fatalf("Restore event missing: %+v", evs)
	}
	if got := reg.Counter("health_degraded_recovered_total").Value(); got != 1 {
		t.Fatalf("health_degraded_recovered_total = %d, want 1", got)
	}
}

// TestDegradedNeedsPeerQuorum pins that peer-relative scoring refuses
// to judge with fewer than two peers: on a two-node pool the slow node
// has one peer, and "you differ from your only peer" cannot say which
// of the two is the outlier.
func TestDegradedNeedsPeerQuorum(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sk := latency.NewSketch(0)
	pool := members(addrs...)
	p, err := New(Config{
		Pool:       pool,
		Timeout:    100 * time.Millisecond,
		SlowFactor: 2,
		SlowWindow: 1,
		Latency:    sk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	seedSketch(sk, addrs[0], 5*time.Millisecond, 60)
	seedSketch(sk, addrs[1], 500*time.Millisecond, 60)
	for i := 0; i < 4; i++ {
		sweep(p, pool)
	}
	if in(pool, addrs[0], nodestate.Degraded) || in(pool, addrs[1], nodestate.Degraded) {
		t.Fatal("scorer judged without a peer quorum")
	}
}

// TestSlowMinLatencyFloor pins the jitter guard: a node 25× its peers
// is still not degraded while its median sits under the floor —
// microsecond-level spread on an idle loopback stack is noise, not a
// gray failure.
func TestSlowMinLatencyFloor(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sk := latency.NewSketch(0)
	pool := members(addrs...)
	p, err := New(Config{
		Pool:       pool,
		Timeout:    100 * time.Millisecond,
		SlowFactor: 4,
		SlowWindow: 1,
		Latency:    sk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	seedSketch(sk, addrs[0], 2*time.Microsecond, 60)
	seedSketch(sk, addrs[1], 2*time.Microsecond, 60)
	seedSketch(sk, addrs[2], 50*time.Microsecond, 60)
	for i := 0; i < 3; i++ {
		sweep(p, pool)
	}
	if in(pool, addrs[2], nodestate.Degraded) {
		t.Fatal("sub-floor median must never degrade")
	}
}

// TestSlowScorerInactiveWithoutFactor pins the opt-in contract: with no
// SlowFactor the prober registers no health_degraded_* series and fires
// no degradations, even when a sketch full of damning samples is handed
// to it.
func TestSlowScorerInactiveWithoutFactor(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sk := latency.NewSketch(0)
	seedSketch(sk, addrs[2], time.Minute, 60) // absurdly slow — must be ignored
	seedSketch(sk, addrs[0], time.Millisecond, 60)
	seedSketch(sk, addrs[1], time.Millisecond, 60)
	var evs []Event
	reg := telemetry.New()
	pool := members(addrs...)
	p, err := New(Config{
		Pool:      pool,
		Timeout:   100 * time.Millisecond,
		Latency:   sk, // sketch without factor: plane stays off
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	for i := 0; i < 4; i++ {
		evs = append(evs, sweep(p, pool)...)
	}
	if in(pool, addrs[2], nodestate.Degraded) || len(evs) != 0 {
		t.Fatal("scorer ran without a SlowFactor")
	}
	snap := reg.Snapshot()
	for name := range snap.Counters {
		if name == "health_degraded_transitions_total" || name == "health_degraded_recovered_total" {
			t.Fatalf("series %s registered without a SlowFactor", name)
		}
	}
}

// TestLoadOmitsStaleSample: a load sample stays evidence for
// sampleStaleness (3) sweeps. Sweeps that carry no sample — busy pings
// prove the node alive but report no depth — age it: after busy sweeps
// 1–3 Load still reports it, the 4th omits the node, and the next loaded
// sweep brings it back. A node never sampled is omitted too: its zero was
// never measured.
func TestLoadOmitsStaleSample(t *testing.T) {
	ls := &loadServer{}
	_, addr := ls.start(t)
	pool := members(addr)
	p, err := New(Config{Pool: pool, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	if load := p.Load(); len(load) != 0 {
		t.Fatalf("Load before any sweep = %v, want empty", load)
	}
	ls.depth.Store(7)
	sweep(p, pool)
	if load := p.Load(); len(load) != 1 || load[addr] != 7 {
		t.Fatalf("Load right after a loaded sweep = %v, want {%s: 7}", load, addr)
	}
	ls.shedding.Store(true)
	for busy := 1; busy <= sampleStaleness+1; busy++ {
		sweep(p, pool)
		_, kept := p.Load()[addr]
		if want := busy <= sampleStaleness; kept != want {
			t.Fatalf("after busy sweep %d the sample is kept = %v, want %v", busy, kept, want)
		}
	}
	if !isUp(pool, addr) {
		t.Fatal("busy sweeps marked the node down: staleness is not liveness")
	}
	ls.shedding.Store(false)
	ls.depth.Store(9)
	sweep(p, pool)
	if got, ok := p.Load()[addr]; !ok || got != 9 {
		t.Fatalf("Load after a fresh loaded sweep = %d (present %v), want 9", got, ok)
	}
}
