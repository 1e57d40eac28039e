package livestack

// Elastic tests at the stack level: the default-off contract, and clients
// on the current map across the pool's growth and drain. The scaler's config cross-check is a row of
// TestValidateRejectsBadValues ("scaler without health"). The breathing
// acceptance scenario is internal/scenario's TestElasticPoolBreathesUnderChaos.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fwd"
	"repro/internal/nodestate"
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

// TestAddIONReachesEveryClientOnTheCurrentMap: AddION's re-arbitration
// reaches a client before AddION returns, and a client made after it
// returns already routing on the map it published — the spawned nodes
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
		spawned = append(spawned, addr)
	}
	want := st.Bus.Current().For("grow")
	if len(want) != 4 || !slices.Contains(want, spawned[1]) {
		t.Fatalf("the map after AddION(%v) gives the job %v, want all 4 nodes", spawned, want)
	}
	late, err := st.NewClient("grow")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*fwd.Client{"the client AddION remapped": early, "a client made after AddION": late} {
		if have := c.IONs(); !slices.Equal(have, want) {
			t.Fatalf("%s holds %v, want the current map's %v", name, have, want)
		}
	}
	if _, err := late.Write("/grown", 0, []byte("on the grown pool")); err != nil {
		t.Fatal(err)
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
