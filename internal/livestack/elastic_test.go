package livestack

// Elastic tests at the stack level: the default-off contract, and clients
// on the current map across the pool's growth and drain. The scaler's config cross-check is a row of
// TestValidateRejectsBadValues ("scaler without health"). The breathing
// acceptance scenario is internal/scenario's TestElasticPoolBreathesUnderChaos.

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/fwd"
	"repro/internal/ion"
	"repro/internal/journal"
	"repro/internal/nodestate"
	"repro/internal/testkit"
)

// TestElasticZeroConfigKeepsStaticPool pins the default-off contract:
// without an Elastic config the stack is the pre-elastic static pool —
// no scaler, no elastic metric series, membership fixed.
func TestElasticZeroConfigKeepsStaticPool(t *testing.T) {
	st := startStack(t, 3)
	if st.Scaler != nil {
		t.Fatal("zero-config stack started a scaler")
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "static")); err != nil {
		t.Fatal(err)
	}
	c, err := st.NewClient("static")
	if err != nil {
		t.Fatal(err)
	}
	allocated(t, c, 0)
	if err := c.Create("/static"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("/static", 0, []byte("unchanged")); err != nil {
		t.Fatal(err)
	}
	snap := st.Telemetry.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "elastic_") {
			t.Errorf("zero-config stack registered %s", name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "elastic_") {
			t.Errorf("zero-config stack registered %s", name)
		}
	}
	if got := len(st.IONAddrs()); got != 3 {
		t.Fatalf("static pool size changed: %d IONs, want 3", got)
	}
}

// TestAddIONReachesEveryClientOnTheCurrentMap: a node AddION admits is
// down until its first Rise, and the re-arbitration that Rise runs
// reaches a client before Transition returns; a client made after it
// returns already routes on the map it published — the spawned nodes
// included. Nothing waits for either.
func TestAddIONReachesEveryClientOnTheCurrentMap(t *testing.T) {
	st := startStack(t, 2)
	early, err := st.NewClient("grow")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "grow")); err != nil {
		t.Fatal(err)
	}
	allocated(t, early, 2)
	var spawned []string
	for range 2 { // IOR-MPI takes 1, 2, 4 … nodes: two more let it grow
		addr, err := st.SpawnION()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Arbiter.AddION(addr); err != nil {
			t.Fatal(err)
		}
		if have := early.IONs(); len(have) != 2 || slices.Contains(have, addr) {
			t.Fatalf("the client holds %v after AddION(%s): a down node was handed out", have, addr)
		}
		if err := st.Arbiter.Transition(addr, nodestate.Rise); err != nil {
			t.Fatal(err)
		}
		spawned = append(spawned, addr)
	}
	want := st.Bus.Current().For("grow")
	if len(want) != 4 || !slices.Contains(want, spawned[1]) {
		t.Fatalf("the map after the rise of %v gives the job %v, want all 4 nodes", spawned, want)
	}
	late, err := st.NewClient("grow")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*fwd.Client{"the client the rises remapped": early, "a client made after them": late} {
		if have := c.IONs(); !slices.Equal(have, want) {
			t.Fatalf("%s holds %v, want the current map's %v", name, have, want)
		}
	}
	if _, err := late.Write("/grown", 0, []byte("on the grown pool")); err != nil {
		t.Fatal(err)
	}
}

// TestScalerProvisionJoinsPoolDown: the node a scaler tick provisions is
// a pool member at once — down, journaled (KindAddION), counted — and
// allocatable only from its first Rise, which spreads the running job
// onto it; no map names it before that Rise. Sweeps are driven by hand.
func TestScalerProvisionJoinsPoolDown(t *testing.T) {
	dir := t.TempDir()
	open := make(chan struct{})
	st, err := Start(Config{
		IONs: 1, Scheduler: "FIFO", ChunkSize: 4096, Dispatchers: 1, JournalDir: dir,
		HealthInterval: time.Hour, HealthTimeout: time.Second, HealthRiseThreshold: 2,
		Elastic:     &elastic.Config{Min: 1, Max: 2, UpWatermark: 1, DownWatermark: 0.2, UpSustain: 1},
		WrapBackend: func(_ int, b ion.Backend) ion.Backend { return &gatedBackend{Backend: b, open: open} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "grow")); err != nil {
		t.Fatal(err)
	}
	// Demand: writes held at the gate queue up on the one node, and the
	// first sweep's tick provisions.
	c, err := st.NewClient("grow")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/grow"); err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func(off int64) {
			defer writers.Done()
			if _, err := c.Write("/grow", off, make([]byte, 4096)); err != nil {
				t.Error(err)
			}
		}(int64(i) * 4096)
	}
	testkit.Eventually(t, "writes queued", func() bool { return st.Daemons[0].QueueDepth() >= 1 })
	st.step()
	close(open)
	writers.Wait()
	pool := st.Arbiter.Pool()
	if len(pool) != 2 {
		t.Fatalf("pool after the provisioning tick = %v, want the initial node and the new one", pool)
	}
	spawned := pool[1]
	if !nodeIn(st.Arbiter, spawned, nodestate.Down) {
		t.Fatalf("provisioned node %s joined the pool up", spawned)
	}
	for name, want := range map[string]int64{"arbiter_ions_down": 1, "arbiter_ions_live": 1} {
		if got := st.Telemetry.Gauge(name).Value(); got != want {
			t.Errorf("%s = %d while the node provisions, want %d", name, got, want)
		}
	}
	st.step() // rise 1 of 2
	if !nodeIn(st.Arbiter, spawned, nodestate.Down) {
		t.Fatal("the node rose before RiseThreshold")
	}
	st.step() // rise 2 of 2: the Rise re-arbitrates
	if alloc := st.Bus.Current().For("grow"); !slices.Contains(alloc, spawned) {
		t.Fatalf("job holds %v after the rise, want it spread onto %s", alloc, spawned)
	}
	for name, want := range map[string]int64{
		"arbiter_ions_added_total": 1, "arbiter_marked_up_total": 1,
		"elastic_provisions_started_total": 1, "elastic_scale_ups_total": 1,
	} {
		if got := st.Telemetry.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	_, recs, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	added, rose := -1, -1
	riseKind := journal.NodeEvent(spawned, nodestate.Rise).Kind
	for i, r := range recs {
		switch {
		case r.Kind == journal.KindAddION && r.Addr == spawned:
			added = i
		case r.Kind == riseKind && r.Addr == spawned:
			rose = i
		case r.Kind == journal.KindPublish && rose < 0 && slices.Contains(r.Assign["grow"], spawned):
			t.Fatalf("publish %d (epoch %d) names %s before its first Rise", i, r.Epoch, spawned)
		}
	}
	if added < 0 || rose < added {
		t.Fatalf("journal holds the AddION of %s at %d and its Rise at %d, want the AddION first", spawned, added, rose)
	}
}

// TestDrainLeavesEveryClientBeforeRemoveION: DrainStart re-arbitrates the
// job off the draining node, and every client is off it when Transition
// returns, so RemoveION — refused while any job routes to the node — and
// the decommission follow at once, and the clients keep writing.
func TestDrainLeavesEveryClientBeforeRemoveION(t *testing.T) {
	st := startStack(t, 3)
	var clients []*fwd.Client
	for range 2 {
		c, err := st.NewClient("shrink")
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "shrink")); err != nil {
		t.Fatal(err)
	}
	gone := clients[0].IONs()[0]
	if err := st.Arbiter.Transition(gone, nodestate.DrainStart); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if have := c.IONs(); len(have) == 0 || slices.Contains(have, gone) {
			t.Fatalf("client %d holds %v when the drain of %s returned", i, have, gone)
		}
	}
	if err := st.Arbiter.RemoveION(gone); err != nil {
		t.Fatal(err)
	}
	if err := st.DecommissionION(gone); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if _, err := c.Write("/shrunk", int64(i), []byte{byte(i)}); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if st := c.Stats(); st.FailoverOps != 0 || st.DirectOps != 0 {
			t.Fatalf("client %d: %+v; want every write forwarded", i, st)
		}
	}
}
