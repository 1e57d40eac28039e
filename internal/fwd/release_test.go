package fwd

// ReleaseConn tests: the conn-pool pruning hook the elastic stack calls
// when an I/O node is decommissioned for good.

import (
	"testing"

	"repro/internal/mapping"
)

func TestReleaseConnPrunesOnlyFormerNodes(t *testing.T) {
	store, addrs, _ := testStack(t, 3)
	c := newTestClient(t, store, 64)
	c.SetIONs(addrs)

	// Releasing a node still in the allocation must be refused silently:
	// the route view depends on that connection.
	c.ReleaseConn(addrs[0])
	if c.targetFor(addrs[0]) == nil {
		t.Fatal("ReleaseConn closed a connection still in the allocation")
	}

	// Remap away from addrs[2]; its connection stays pooled (map-back is
	// cheap) until the release says the node is gone for good.
	c.SetIONs(addrs[:2])
	if c.targetFor(addrs[2]) == nil {
		t.Fatal("remap dropped the pooled connection (pooling across remaps is deliberate)")
	}
	c.ReleaseConn(addrs[2])
	if c.targetFor(addrs[2]) != nil {
		t.Fatal("ReleaseConn left the decommissioned node's connection pooled")
	}

	// Unknown address: no-op.
	c.ReleaseConn("nobody:1")

	// I/O keeps working on the surviving allocation.
	if _, err := c.Write("/f", 0, []byte("still forwarding")); err != nil {
		t.Fatalf("write after release: %v", err)
	}
}

func TestReleaseConnThenRemapBackRedials(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	c := newTestClient(t, store, 64)
	c.SetIONs(addrs)
	c.SetIONs(addrs[:1])
	c.ReleaseConn(addrs[1])

	// The address comes back (a new daemon on the same endpoint would
	// look identical): the client must redial, not reuse a closed conn.
	c.SetIONs(addrs)
	if _, err := c.Write("/g", 0, []byte(pattern(256))); err != nil {
		t.Fatalf("write after remap-back: %v", err)
	}
}

// A decommission can race an op that already picked its route: the op
// holds a view whose pooled rpc client ReleaseConn has just closed. That
// op must take the ordinary failover path to the direct PFS — never
// surface rpc.ErrClosed (or a raw transport error) to the application.
func TestReleaseConnRaceFailsOverClosedClient(t *testing.T) {
	store, addrs, _ := testStack(t, 1)
	c := newTestClient(t, store, 64)
	c.SetIONs(addrs)

	// Close the node's rpc client out from under the live route view —
	// the observable state an in-flight op sees when the remap and the
	// release land between its route pick and its call.
	c.targetFor(addrs[0]).conn.Close()

	data := []byte(pattern(256))
	n, err := c.Write("/race", 0, data)
	if err != nil || n != len(data) {
		t.Fatalf("write on released client: n=%d err=%v (want clean failover)", n, err)
	}
	if c.Stats().FailoverOps == 0 {
		t.Fatal("closed-client write did not count as a failover")
	}
	got := make([]byte, len(data))
	if n, err := store.Read("/race", 0, got); err != nil || n != len(data) || string(got) != string(data) {
		t.Fatalf("bytes not on the PFS via the direct path: n=%d err=%v", n, err)
	}
}

// A remap away from a node and back hands out the very same target: the
// pooled connection and the gate with the window it had learned. Only
// ReleaseConn and Close drop one.
func TestReleaseConnOnlyDropsTargetRemapKeepsIt(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	c, err := NewClient(Config{AppID: "app", Direct: store, ChunkSize: 64,
		Throttle: ThrottleConfig{Enabled: true, MaxWindow: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs(addrs)
	before := c.targetFor(addrs[1])
	conn, gate := before.conn, &before.gate
	gate.mu.Lock()
	gate.window = 2.5 // what a run of sheds would have left behind
	gate.mu.Unlock()

	c.SetIONs(addrs[:1])
	c.SetIONs(addrs)
	after := c.view.Load().targets[1]
	if after != before || after != c.targetFor(addrs[1]) {
		t.Fatal("remap away and back built a new target")
	}
	gate.mu.Lock()
	window := gate.window
	gate.mu.Unlock()
	if after.addr != addrs[1] || after.conn != conn || &after.gate != gate || window != 2.5 {
		t.Fatalf("target changed across the remap: addr=%q conn kept=%v gate kept=%v window=%v",
			after.addr, after.conn == conn, &after.gate == gate, window)
	}
}

// A remap of known nodes builds nothing per node; Close retains no target
// at all.
func TestCloseRetainsNoTarget(t *testing.T) {
	store, addrs, _ := testStack(t, 3)
	c := newTestClient(t, store, 64)
	c.SetIONs(addrs)
	c.SetIONs(addrs[:1]) // two former nodes stay pooled
	if n := testing.AllocsPerRun(20, func() { c.SetIONs(addrs[:1]) }); n != 0 {
		// an unchanged allocation keeps its view, targets and all
		t.Fatalf("remap of a known address allocates %v objects, want 0", n)
	}
	c.Close()
	c.mu.Lock()
	left := len(c.targets)
	c.mu.Unlock()
	if left != 0 || c.view.Load() != nil {
		t.Fatalf("after Close: %d targets, view=%v; want none", left, c.view.Load())
	}
}

// A closed client ignores every later map and allocation: it dials no
// target, installs no route view and counts no remap. A stack's bus
// follower keeps calling ApplyMap on the clients it made after they close.
func TestClosedClientIgnoresMaps(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	c := newTestClient(t, store, 64)
	c.ApplyMap(mapping.Map{Version: 1, IONs: map[string][]string{"app": addrs[:1]}})
	c.Close()
	remaps := c.Stats().RemapsApplied
	c.ApplyMap(mapping.Map{Version: 2, IONs: map[string][]string{"app": addrs}})
	c.SetIONs(addrs)
	c.mu.Lock()
	left := len(c.targets)
	c.mu.Unlock()
	if ions, got := c.IONs(), c.Stats().RemapsApplied; ions != nil || left != 0 || got != remaps {
		t.Fatalf("a closed client took a map: routes on %v, holds %d targets, %d remaps (%d at Close)",
			ions, left, got, remaps)
	}
}

// A map that leaves this app's allocation unchanged still counts as a remap
// and moves the epoch, but allocates nothing: the current view stays
// installed with its epoch advanced in place.
func TestApplyMapUnchangedAllocationPin(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	c := newTestClient(t, store, 64)
	ions := map[string][]string{"app": addrs, "other": {"127.0.0.1:1"}}
	ver := uint64(1)
	c.ApplyMap(mapping.Map{Version: ver, IONs: ions})
	before := c.view.Load()
	remaps := c.Stats().RemapsApplied
	n := testing.AllocsPerRun(50, func() {
		ver++
		c.ApplyMap(mapping.Map{Version: ver, IONs: ions})
	})
	if n != 0 {
		t.Fatalf("ApplyMap of an unchanged allocation allocates %v objects, want 0", n)
	}
	if after := c.view.Load(); after != before || after.epoch.Load() != ver {
		t.Fatalf("view after unchanged remap: same view %v, epoch %d (want %d)",
			after == before, after.epoch.Load(), ver)
	}
	if got := c.Stats().RemapsApplied - remaps; got != 51 {
		t.Fatalf("%d remaps counted for 51 maps", got)
	}
}

func pattern(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return string(b)
}
