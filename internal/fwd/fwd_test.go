package fwd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/agios"
	"repro/internal/ion"
	"repro/internal/mapping"
	"repro/internal/pfs"
	"repro/internal/rpc"
)

// testStack spins up a PFS store and n I/O-node daemons, returning the
// store and daemon addresses.
func testStack(t *testing.T, n int) (*pfs.Store, []string, []*ion.Daemon) {
	t.Helper()
	store := pfs.NewStore(pfs.Config{})
	addrs := make([]string, 0, n)
	daemons := make([]*ion.Daemon, 0, n)
	for i := 0; i < n; i++ {
		d := ion.New(ion.Config{ID: fmt.Sprintf("ion%d", i), Scheduler: agios.NewFIFO()}, store)
		addr, err := d.Start("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		addrs = append(addrs, addr)
		daemons = append(daemons, d)
	}
	return store, addrs, daemons
}

func newTestClient(t *testing.T, direct pfs.FileSystem, chunk int64) *Client {
	t.Helper()
	c, err := NewClient(Config{AppID: "app", Direct: direct, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// route returns the connection chunk chunkIdx of path is routed to, or nil
// in direct mode.
func (c *Client) route(path string, chunkIdx int64) *rpc.Client {
	v := c.loadView()
	if v == nil {
		return nil
	}
	return v.targets[fnvChunk(fnvString(fnvOffset64, path), chunkIdx)%uint64(len(v.targets))].conn
}

// targetFor returns the per-node record the client holds for addr (nil
// when it holds none).
func (c *Client) targetFor(addr string) *target {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.targets[addr]
}

// gateFor returns the throttle gate for addr (nil when throttling is off
// or the address is unknown).
func (c *Client) gateFor(addr string) *ionGate {
	if t := c.targetFor(addr); t != nil {
		return t.gate
	}
	return nil
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(Config{Direct: pfs.NewStore(pfs.Config{})}); err == nil {
		t.Fatal("missing AppID should fail")
	}
	if _, err := NewClient(Config{AppID: "a"}); err == nil {
		t.Fatal("missing direct FS should fail")
	}
}

func TestDirectMode(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	c := newTestClient(t, store, 0)
	data := []byte("direct bytes")
	if _, err := c.Write("/d", 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := c.Read("/d", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("direct round trip: %q", got)
	}
	st := c.Stats()
	if st.DirectOps == 0 || st.ForwardedOps != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestForwardedRoundTrip(t *testing.T) {
	store, addrs, daemons := testStack(t, 4)
	c := newTestClient(t, store, 1024)
	c.SetIONs(addrs)

	// A write spanning many chunks lands distributed across IONs.
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(data)
	if n, err := c.Write("/fw", 0, data); err != nil || n != len(data) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	got := make([]byte, len(data))
	if _, err := c.Read("/fw", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("forwarded round trip corrupted")
	}
	// Data truly went through the daemons, spread across several.
	busy := 0
	var totalIn int64
	for _, d := range daemons {
		st := d.Stats()
		totalIn += st.BytesIn
		if st.Writes > 0 {
			busy++
		}
	}
	if totalIn != int64(len(data)) {
		t.Fatalf("daemon ingress %d, want %d", totalIn, len(data))
	}
	if busy < 2 {
		t.Fatalf("chunk distribution degenerate: only %d/4 IONs used", busy)
	}
	if st := c.Stats(); st.DirectOps != 0 {
		t.Fatalf("forwarded client used direct path: %+v", st)
	}
}

func TestChunkRoutingDeterministic(t *testing.T) {
	store, addrs, _ := testStack(t, 4)
	c1 := newTestClient(t, store, 1024)
	c1.SetIONs(addrs)
	c2 := newTestClient(t, store, 1024)
	c2.SetIONs(addrs)
	for idx := int64(0); idx < 32; idx++ {
		a := c1.route("/p", idx)
		b := c2.route("/p", idx)
		if a.Addr() != b.Addr() {
			t.Fatalf("routing differs across clients for chunk %d", idx)
		}
	}
}

func TestUnalignedWritesAndReads(t *testing.T) {
	store, addrs, _ := testStack(t, 3)
	c := newTestClient(t, store, 512)
	c.SetIONs(addrs)
	ref := make([]byte, 8192)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		off := int64(rng.Intn(7000))
		n := rng.Intn(900) + 1
		payload := make([]byte, n)
		rng.Read(payload)
		if _, err := c.Write("/u", off, payload); err != nil {
			t.Fatal(err)
		}
		copy(ref[off:off+int64(n)], payload)
	}
	info, err := c.Stat("/u")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, info.Size)
	if _, err := c.Read("/u", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref[:info.Size]) {
		t.Fatal("unaligned I/O diverged from reference")
	}
}

func TestShortReadThroughStack(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	c := newTestClient(t, store, 512)
	c.SetIONs(addrs)
	c.Write("/s", 0, []byte("hello"))
	buf := make([]byte, 100)
	n, err := c.Read("/s", 0, buf)
	if n != 5 || !errors.Is(err, pfs.ErrShortRead) {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
	if string(buf[:5]) != "hello" {
		t.Fatalf("payload: %q", buf[:5])
	}
}

func TestMetadataThroughStack(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	c := newTestClient(t, store, 512)
	c.SetIONs(addrs)
	if err := c.Create("/m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/m"); err != nil {
		t.Fatal(err)
	}
	if err := c.Fsync("/m"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/m"); !errors.Is(err, pfs.ErrNotExist) {
		t.Fatalf("want ErrNotExist through the wire, got %v", err)
	}
	if _, err := store.Stat("/m"); !errors.Is(err, pfs.ErrNotExist) {
		t.Fatal("remove did not reach the backend")
	}
}

// TestDynamicRemapMidStream is the paper's key client property: the number
// of I/O nodes assigned to an application changes during its execution
// without disrupting it.
func TestDynamicRemapMidStream(t *testing.T) {
	store, addrs, _ := testStack(t, 4)
	c := newTestClient(t, store, 256)
	c.SetIONs(addrs[:1])

	ref := make([]byte, 0, 40*256)
	var off int64
	writeSome := func(tag byte, n int) {
		for i := 0; i < n; i++ {
			payload := bytes.Repeat([]byte{tag}, 256)
			if _, err := c.Write("/remap", off, payload); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, payload...)
			off += 256
		}
	}
	writeSome('a', 10)
	c.SetIONs(addrs) // grow 1 → 4 mid-stream
	writeSome('b', 10)
	c.SetIONs(addrs[2:3]) // shrink to a different single ION
	writeSome('c', 10)
	c.SetIONs(nil) // drop to direct access
	writeSome('d', 10)

	got := make([]byte, len(ref))
	if _, err := c.Read("/remap", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("remap corrupted the stream")
	}
	if st := c.Stats(); st.RemapsApplied != 4 || st.DirectOps == 0 {
		t.Fatalf("stats after remaps: %+v", st)
	}
}

func TestApplyMapVersioning(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	c := newTestClient(t, store, 512)
	// Version 0 applies every time while nothing versioned has been.
	v0 := mapping.Map{IONs: map[string][]string{"app": addrs[:1]}}
	c.ApplyMap(v0)
	c.ApplyMap(v0)
	if got := c.Stats().RemapsApplied; got != 2 || len(c.IONs()) != 1 {
		t.Fatalf("v0 twice: %d remaps on %v, want 2 on one node", got, c.IONs())
	}
	c.ApplyMap(mapping.Map{Version: 2, IONs: map[string][]string{"app": addrs}})
	if len(c.IONs()) != 2 {
		t.Fatal("map not applied")
	}
	// Stale map must be ignored.
	c.ApplyMap(mapping.Map{Version: 1, IONs: map[string][]string{"app": nil}})
	if len(c.IONs()) != 2 {
		t.Fatal("stale map applied")
	}
	// So must version 0, once a versioned map is installed.
	c.ApplyMap(v0)
	if len(c.IONs()) != 2 {
		t.Fatal("v0 applied over a versioned map")
	}
	// Newer map wins.
	c.ApplyMap(mapping.Map{Version: 3, IONs: map[string][]string{"app": addrs[:1]}})
	if len(c.IONs()) != 1 {
		t.Fatal("newer map not applied")
	}
}

// follow makes clients follow bus the way a livestack.Stack's clients do:
// each starts on the bus's current map, and one follower applies every
// later publication to them, in order, inside Publish. It unfollows at
// test cleanup.
func follow(t *testing.T, bus *mapping.Bus, clients ...*Client) {
	t.Helper()
	t.Cleanup(bus.Follow(func(m mapping.Map) {
		for _, c := range clients {
			c.ApplyMap(m)
		}
	}))
	for _, c := range clients {
		c.ApplyMap(bus.Current())
	}
}

// TestFollowerLoopAppliesBusUpdates: two applications' clients on one
// bus follower each install their own allocation from every publication
// before Publish returns, and each counts every map once.
func TestFollowerLoopAppliesBusUpdates(t *testing.T) {
	store, addrs, _ := testStack(t, 2)
	c := newTestClient(t, store, 512)
	other, err := NewClient(Config{AppID: "other", Direct: store, ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	bus := mapping.NewBus()
	follow(t, bus, c, other)

	holds := func(what string, cl *Client, n int) {
		t.Helper()
		if have := cl.IONs(); len(have) != n {
			t.Fatalf("Publish returned before %s reached %s: it holds %v", what, cl.cfg.AppID, have)
		}
	}
	bus.Publish(map[string][]string{"app": addrs, "other": addrs[1:]})
	holds("the first update", c, 2)
	holds("the first update", other, 1)
	bus.Publish(map[string][]string{"app": nil, "other": addrs})
	holds("the second update", other, 2)
	holds("the second update", c, 0)
	for _, cl := range []*Client{c, other} {
		if got := cl.Stats().RemapsApplied; got != 3 {
			t.Errorf("%s applied %d maps, want 3 (v0 and two publications)", cl.cfg.AppID, got)
		}
	}
}

// TestEpochWaitWakesOnApplyMapAndClose: a wait parked on the view-changed
// signal with a 30 s timeout returns the view the next ApplyMap installs,
// and returns no view when the client closes — each long before its
// timeout. Each ok reports its first check, so the install and the Close
// land while the wait is parked.
func TestEpochWaitWakesOnApplyMapAndClose(t *testing.T) {
	c := newTestClient(t, pfs.NewStore(pfs.Config{}), 512)
	c.ApplyMap(mapping.Map{Version: 1})
	type result struct {
		v    *routeView
		ok   bool
		took time.Duration
	}
	park := func(wait func(checked func()) result) <-chan result {
		done, parked := make(chan result, 1), make(chan struct{})
		var once sync.Once
		go func() {
			began := time.Now()
			r := wait(func() { once.Do(func() { close(parked) }) })
			r.took = time.Since(began)
			done <- r
		}()
		<-parked // the current view was refused: the wait is parked
		return done
	}

	awaitEpochAbove := func(stale uint64) func(checked func()) result {
		return func(checked func()) result {
			v, ok := c.awaitView(30*time.Second, func(v *routeView) bool {
				checked()
				return v != nil && v.epoch > stale
			})
			return result{v, ok, 0}
		}
	}

	epoch := park(awaitEpochAbove(1))
	c.ApplyMap(mapping.Map{Version: 2, IONs: map[string][]string{"app": {"ion-a:1"}}})
	r := <-epoch
	if !r.ok || r.v.epoch != 2 || len(r.v.targets) != 1 || r.took > 10*time.Second {
		t.Fatalf("ApplyMap woke the wait with ok=%v view=%+v after %v; want the epoch-2 view at once", r.ok, r.v, r.took)
	}

	closed := park(awaitEpochAbove(2))
	c.Close()
	if r := <-closed; r.ok || r.v != nil || r.took > 10*time.Second {
		t.Fatalf("Close woke the wait with ok=%v view=%+v after %v; want no view, at once", r.ok, r.v, r.took)
	}
	if ions, ok := c.AwaitIONs(30*time.Second, func([]string) bool { return true }); ok || ions != nil {
		t.Fatalf("a wait on a closed client returned %v, %v; want nil, false", ions, ok)
	}
}

func TestConcurrentWritersSharedFileThroughStack(t *testing.T) {
	store, addrs, _ := testStack(t, 3)
	const ranks = 8
	const region = 2048
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := NewClient(Config{AppID: "app", Direct: store, ChunkSize: 512})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetIONs(addrs)
			payload := bytes.Repeat([]byte{byte('A' + r)}, region)
			if _, err := c.Write("/shared", int64(r)*region, payload); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	buf := make([]byte, ranks*region)
	if _, err := store.Read("/shared", 0, buf); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for i := 0; i < region; i += 97 {
			if buf[r*region+i] != byte('A'+r) {
				t.Fatalf("rank %d corrupted at %d", r, i)
			}
		}
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	store, addrs, _ := testStack(t, 1)
	c := newTestClient(t, store, 512)
	c.SetIONs(addrs)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkSpanCoversExactly: the chunk decomposition tiles [off, off+n)
// with no gaps, overlaps, or boundary crossings.
func TestChunkSpanCoversExactly(t *testing.T) {
	c := newTestClient(t, pfs.NewStore(pfs.Config{}), 512)
	f := func(offRaw uint16, nRaw uint16) bool {
		off, n := int64(offRaw), int64(nRaw)+1
		next := off
		var total int64
		err := c.chunkSpan(off, n, func(idx, o, m int64) error {
			if o != next || m <= 0 {
				return errors.New("gap or empty extent")
			}
			if o/512 != idx || (o+m-1)/512 != idx {
				return errors.New("extent crosses a chunk boundary")
			}
			next = o + m
			total += m
			return nil
		})
		return err == nil && total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSentinelsSurviveForwarding: an application never notices where
// its I/O went, and that includes its errors. Every op that can fail with
// one of the store's sentinels matches it with errors.Is whether the op
// ran on the PFS directly or crossed the wire as text.
func TestStoreSentinelsSurviveForwarding(t *testing.T) {
	for _, mode := range []string{"direct", "forwarded"} {
		store, addrs, _ := testStack(t, 2)
		c := newTestClient(t, store, 64)
		if mode == "forwarded" {
			c.SetIONs(addrs)
		}
		if _, err := store.Write("/short", 0, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			op   string
			want error
			run  func() error
		}{
			{"read", pfs.ErrNotExist, func() error { _, err := c.Read("/missing", 0, make([]byte, 8)); return err }},
			{"read, many spans", pfs.ErrNotExist, func() error { _, err := c.Read("/missing", 0, make([]byte, 512)); return err }},
			{"stat", pfs.ErrNotExist, func() error { _, err := c.Stat("/missing"); return err }},
			{"remove", pfs.ErrNotExist, func() error { return c.Remove("/missing") }},
			{"fsync", pfs.ErrNotExist, func() error { return c.Fsync("/missing") }},
			{"read past EOF", pfs.ErrShortRead, func() error { _, err := c.Read("/short", 90, make([]byte, 20)); return err }},
			{"read past EOF, many spans", pfs.ErrShortRead, func() error { _, err := c.Read("/short", 0, make([]byte, 512)); return err }},
		}
		for _, tc := range cases {
			if err := tc.run(); !errors.Is(err, tc.want) {
				t.Errorf("%s %s: err = %v, want errors.Is(%v)", mode, tc.op, err, tc.want)
			}
		}
		if st := c.Stats(); st.FailoverOps != 0 || st.DegradedOps != 0 || (mode == "forwarded" && st.DirectOps != 0) {
			t.Errorf("%s: an application error took a fallback: %+v", mode, st)
		}
	}
}
