package fwd

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agios"
	"repro/internal/ion"
	"repro/internal/mapping"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// fencedStack starts n fake I/O-node servers that share one fence floor
// and apply accepted writes to ionStore: a write stamped below the fence
// is rejected with the stale-epoch wire error, exactly as a real daemon
// would. onFence, when set, runs before each rejection is answered — where
// a stack's Publish, having raised the fence, applies the map to the
// client. lastEpoch records the stamp of the most recent write request
// seen by any node.
func fencedStack(t *testing.T, n int, ionStore *pfs.Store, onFence func()) (addrs []string, fence, lastEpoch *atomic.Uint64) {
	t.Helper()
	fence = &atomic.Uint64{}
	lastEpoch = &atomic.Uint64{}
	for i := 0; i < n; i++ {
		srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
			if req.Op == rpc.OpWrite {
				lastEpoch.Store(req.Epoch)
				if f := fence.Load(); req.Epoch != 0 && req.Epoch < f {
					if onFence != nil {
						onFence()
					}
					return &rpc.Message{Op: req.Op, Err: rpc.StaleEpochErrText(req.Epoch, f), Epoch: f}
				}
				k, err := ionStore.Write(req.Path, req.Offset, req.Data)
				if err != nil {
					return &rpc.Message{Op: req.Op, Err: err.Error()}
				}
				return &rpc.Message{Op: req.Op, Size: int64(k)}
			}
			return &rpc.Message{Op: req.Op}
		})
		addr, err := srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, addr)
	}
	return addrs, fence, lastEpoch
}

func epochClient(t *testing.T, direct pfs.FileSystem, reg *telemetry.Registry) *Client {
	t.Helper()
	c, err := NewClient(Config{AppID: "eapp", Direct: direct, ChunkSize: 1024, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWriteRemapsOnStaleEpoch pins the remap-and-retry class: a fenced
// write is not an error — the revoking map is installed before the
// rejection comes back, the client rebuilds its routing over it, and the
// bytes land through the forwarding path, counted exactly once.
func TestWriteRemapsOnStaleEpoch(t *testing.T) {
	ionStore := pfs.NewStore(pfs.Config{})
	directStore := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	var c *Client
	var addrs []string
	addrs, fence, _ := fencedStack(t, 2, ionStore, func() {
		c.ApplyMap(mapping.Map{Version: 2, Fence: 2, IONs: map[string][]string{"eapp": addrs}})
	})
	c = epochClient(t, directStore, reg)

	c.ApplyMap(mapping.Map{Version: 1, IONs: map[string][]string{"eapp": addrs}})
	fence.Store(2) // the arbiter died and recovered: epoch 1 is revoked

	data := bytes.Repeat([]byte{5}, 4096) // 4 chunks: exercises span rebuild
	k, err := c.Write("/f", 0, data)
	if err != nil {
		t.Fatalf("fenced write surfaced an error: %v", err)
	}
	if k != len(data) {
		t.Fatalf("short write after remap: %d", k)
	}
	buf := make([]byte, len(data))
	if _, err := ionStore.Read("/f", 0, buf); err != nil {
		t.Fatalf("bytes not in the forwarding backend: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("retried write corrupted")
	}
	if _, err := directStore.Read("/f", 0, make([]byte, 1)); err == nil {
		t.Fatal("remapped write leaked onto the direct path")
	}
	st := c.Stats()
	if st.BytesOut != int64(len(data)) || st.DirectOps != 0 {
		t.Fatalf("BytesOut = %d, DirectOps = %d; want %d and 0 (bytes count once across the retry, none go direct)",
			st.BytesOut, st.DirectOps, len(data))
	}
	if v := reg.Counter(`epoch_stale_retries_total{app="eapp"}`).Value(); v == 0 {
		t.Fatal("epoch_stale_retries_total not incremented")
	}
}

// TestRefusedStaleEpochWriteGoesDirectAtOnce: a write fenced while
// its client holds no view above the rejected epoch lands once on the
// direct PFS path — byte-safe, because the fenced write never reached the
// backend — and does so at once: nothing is waited for.
func TestRefusedStaleEpochWriteGoesDirectAtOnce(t *testing.T) {
	ionStore := pfs.NewStore(pfs.Config{})
	directStore := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	addrs, fence, _ := fencedStack(t, 2, ionStore, nil)
	c := epochClient(t, directStore, reg)

	c.ApplyMap(mapping.Map{Version: 1, IONs: map[string][]string{"eapp": addrs}})
	fence.Store(2)

	data := bytes.Repeat([]byte{9}, 2048)
	began := time.Now()
	k, err := c.Write("/g", 0, data)
	if took := time.Since(began); took > 500*time.Millisecond {
		t.Errorf("the fenced write took %v: it waited for a map", took)
	}
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if k != len(data) {
		t.Fatalf("short write: %d", k)
	}
	buf := make([]byte, len(data))
	if _, err := directStore.Read("/g", 0, buf); err != nil {
		t.Fatalf("bytes not on the direct path: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("direct fallback corrupted the payload")
	}
	if _, err := ionStore.Read("/g", 0, make([]byte, 1)); err == nil {
		t.Fatal("fenced write reached the forwarding backend")
	}
	if st := c.Stats(); st.BytesOut != int64(len(data)) {
		t.Fatalf("BytesOut = %d, want %d", st.BytesOut, len(data))
	}
	if v := reg.Counter(`epoch_stale_retries_total{app="eapp"}`).Value(); v == 0 {
		t.Fatal("epoch_stale_retries_total not incremented")
	}
}

// TestWriteStampsViewEpoch: forwarded writes carry the mapping version of
// the route view they were built from; a same-version fence-only
// republish still applies (the recovery path re-announces the surviving
// allocation under a raised floor without re-solving).
func TestWriteStampsViewEpoch(t *testing.T) {
	ionStore := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	addrs, _, lastEpoch := fencedStack(t, 1, ionStore, nil)
	c := epochClient(t, pfs.NewStore(pfs.Config{}), reg)

	c.ApplyMap(mapping.Map{Version: 7, IONs: map[string][]string{"eapp": addrs}})
	if _, err := c.Write("/h", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if got := lastEpoch.Load(); got != 7 {
		t.Fatalf("write stamped epoch %d, want 7", got)
	}

	// Same version, higher fence: must be applied, not deduped.
	c.ApplyMap(mapping.Map{Version: 7, Fence: 7, IONs: map[string][]string{"eapp": nil}})
	if got := c.IONs(); len(got) != 0 {
		t.Fatalf("fence-only republish ignored: allocation still %v", got)
	}
}

// TestSetIONsOnlyClientStampsNoEpoch: a client that never applied a map
// routes by SetIONs alone. Its writes stamp epoch 0 — no trailer on the
// wire — so no fence, however high, refuses them.
func TestSetIONsOnlyClientStampsNoEpoch(t *testing.T) {
	ionStore := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	addrs, fence, lastEpoch := fencedStack(t, 1, ionStore, nil)
	c := epochClient(t, pfs.NewStore(pfs.Config{}), reg)
	fence.Store(100)
	c.SetIONs(addrs)
	lastEpoch.Store(1)
	if _, err := c.Write("/s", 0, []byte("efgh")); err != nil {
		t.Fatal(err)
	}
	if got := lastEpoch.Load(); got != 0 {
		t.Fatalf("write through a SetIONs-only client stamped epoch %d, want 0", got)
	}
	if st := c.Stats(); st.ForwardedOps != 1 || reg.Counter(`epoch_stale_retries_total{app="eapp"}`).Value() != 0 {
		t.Fatalf("%+v: want the write forwarded and never fenced", st)
	}
	if _, err := ionStore.Read("/s", 0, make([]byte, 4)); err != nil {
		t.Fatalf("bytes not on the I/O node's store: %v", err)
	}
}

// TestHeldRouteStampsRecoveryEpoch: a recovery publish raises every
// daemon's fence before the clients apply it. A client whose route held
// keeps its view, the view's epoch advanced in place, and its next write
// carries the new epoch, which a fenced daemon accepts; a client
// whose route moved gets a new view at the same epoch.
func TestHeldRouteStampsRecoveryEpoch(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	var addrs []string
	var daemons []*ion.Daemon
	for i := 0; i < 3; i++ {
		d := ion.New(ion.Config{ID: fmt.Sprintf("ion%d", i), Scheduler: agios.NewFIFO()}, store)
		addr, err := d.Start("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		addrs, daemons = append(addrs, addr), append(daemons, d)
	}
	reg := telemetry.New()
	held := epochClient(t, pfs.NewStore(pfs.Config{}), reg)
	moved, err := NewClient(Config{AppID: "moved", Direct: pfs.NewStore(pfs.Config{}), ChunkSize: 1024, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { moved.Close() })
	for _, m := range []mapping.Map{
		{Version: 1, IONs: map[string][]string{"eapp": addrs[:1], "moved": addrs[1:2]}},
		{Version: 2, Fence: 2, IONs: map[string][]string{"eapp": addrs[:1], "moved": addrs[2:]}},
	} {
		if m.Fence > 0 {
			for _, d := range daemons {
				d.SetFence(m.Fence)
			}
		}
		heldView, movedView := held.view.Load(), moved.view.Load()
		held.ApplyMap(m)
		moved.ApplyMap(m)
		if m.Version == 1 {
			continue
		}
		if v := held.view.Load(); v != heldView || v.epoch.Load() != 2 {
			t.Fatalf("held route: same view %v, epoch %d; want the same view at epoch 2", v == heldView, v.epoch.Load())
		}
		if v := moved.view.Load(); v == movedView || v.epoch.Load() != 2 || v.targets[0].addr != addrs[2] {
			t.Fatalf("moved route: new view %v, epoch %d, routed to %s; want a new view at epoch 2 on %s",
				v != movedView, v.epoch.Load(), v.targets[0].addr, addrs[2])
		}
	}
	for _, c := range []*Client{held, moved} {
		data := bytes.Repeat([]byte{7}, 512)
		path := "/" + c.cfg.AppID
		if k, err := c.Write(path, 0, data); err != nil || k != len(data) {
			t.Fatalf("%s: write after the recovery publish: %d, %v", c.cfg.AppID, k, err)
		}
		if st := c.Stats(); st.DirectOps != 0 || st.ForwardedOps != 1 {
			t.Fatalf("%s: %d forwarded, %d direct; want the one write forwarded", c.cfg.AppID, st.ForwardedOps, st.DirectOps)
		}
		if _, err := store.Read(path, 0, make([]byte, len(data))); err != nil {
			t.Fatalf("%s: bytes not on the I/O nodes' store: %v", c.cfg.AppID, err)
		}
	}
	for name, n := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "epoch_stale_retries_total") && n != 0 {
			t.Fatalf("%s = %d: a daemon fenced a write stamped after the recovery publish", name, n)
		}
	}
}

// TestUnchangedRouteEpochRace: under -race, one goroutine applies maps
// that keep the route while another writes through a fencing daemon. The
// view is shared and its epoch moves in place, so every write must stamp
// an epoch at least the version applied before its Write began, and the
// daemon — fenced at the first version — must fence none of them.
func TestUnchangedRouteEpochRace(t *testing.T) {
	ionStore := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	addrs, fence, lastEpoch := fencedStack(t, 2, ionStore, nil)
	c := epochClient(t, pfs.NewStore(pfs.Config{}), reg)
	const first = 5
	ions := map[string][]string{"eapp": addrs}
	fence.Store(first)
	c.ApplyMap(mapping.Map{Version: first, Fence: first, IONs: ions})
	var applied atomic.Uint64
	applied.Store(first)
	done := make(chan struct{})
	applier := make(chan struct{})
	go func() {
		defer close(applier)
		for v := uint64(first + 1); ; v++ {
			select {
			case <-done:
				return
			default:
			}
			c.ApplyMap(mapping.Map{Version: v, Fence: first, IONs: ions})
			applied.Store(v)
		}
	}()
	data := []byte("epoch-08") // 8 bytes: no write straddles a chunk
	for i := 0; i < 500; i++ {
		before := applied.Load()
		if _, err := c.Write("/race", int64(i)*int64(len(data)), data); err != nil {
			t.Fatal(err)
		}
		if got := lastEpoch.Load(); got < before {
			t.Fatalf("write %d stamped epoch %d, below version %d applied before it began", i, got, before)
		}
	}
	close(done)
	<-applier
	if n := reg.Counter(`epoch_stale_retries_total{app="eapp"}`).Value(); n != 0 {
		t.Fatalf("%d writes fenced", n)
	}
	if st := c.Stats(); st.DirectOps != 0 || st.ForwardedOps != 500 {
		t.Fatalf("%d forwarded, %d direct; want all 500 forwarded", st.ForwardedOps, st.DirectOps)
	}
}
