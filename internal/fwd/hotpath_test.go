package fwd

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agios"
	"repro/internal/ion"
	"repro/internal/mapping"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/testkit"
)

// TestRouteHashMatchesFNV pins the inlined incremental FNV-1a routing to
// the original hash/fnv implementation bit for bit: the rewrite must not
// move a single chunk to a different I/O node.
func TestRouteHashMatchesFNV(t *testing.T) {
	paths := []string{"", "/", "/a", "/some/long/path.bin", strings.Repeat("x", 300)}
	idxs := []int64{0, 1, 7, 255, 256, 1 << 20, 1 << 62, -1}
	for _, p := range paths {
		for _, idx := range idxs {
			h := fnv.New64a()
			h.Write([]byte(p))
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(idx >> (8 * i))
			}
			h.Write(b[:])
			want := h.Sum64()
			if got := fnvChunk(fnvString(fnvOffset64, p), idx); got != want {
				t.Fatalf("path %q idx %d: inline hash %#x, hash/fnv %#x", p, idx, got, want)
			}
		}
	}
}

// chunkSpan iterates the chunk-aligned extents of [off, off+n): the
// reference splitter buildSpans is checked against.
func (c *Client) chunkSpan(off, n int64, fn func(chunkIdx, off, n int64) error) error {
	cs := c.cfg.ChunkSize
	for n > 0 {
		idx := off / cs
		ext := cs - off%cs
		if ext > n {
			ext = n
		}
		if err := fn(idx, off, ext); err != nil {
			return err
		}
		off += ext
		n -= ext
	}
	return nil
}

// TestBuildSpansProperties checks the span invariants over many request
// shapes: spans tile [off, off+n) exactly, every chunk inside a span
// routes to the span's target, no span exceeds the coalesce limit, and
// adjacent spans are split for a reason (different target or the limit).
func TestBuildSpansProperties(t *testing.T) {
	c, err := NewClient(Config{
		AppID: "app", Direct: pfs.NewStore(pfs.Config{}),
		ChunkSize: 7, CoalesceLimit: 21, // three chunks per span at most
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := &routeView{targets: make([]*target, 2)} // only the count matters to buildSpans
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		off := rng.Int63n(100)
		n := 1 + rng.Int63n(200)
		path := fmt.Sprintf("/p%d", trial%17)
		spans := c.buildSpans(v, path, off, n, nil)
		pos := off
		for i, s := range spans {
			if s.off != pos || s.n <= 0 || s.chunks <= 0 {
				t.Fatalf("trial %d: span %d not contiguous: %+v at pos %d", trial, i, s, pos)
			}
			if s.n > c.cfg.CoalesceLimit && s.chunks > 1 {
				t.Fatalf("trial %d: span %d exceeds coalesce limit: %+v", trial, i, s)
			}
			ph := fnvString(fnvOffset64, path)
			if err := c.chunkSpan(s.off, s.n, func(idx, _, _ int64) error {
				if got := int(fnvChunk(ph, idx) % 2); got != s.target {
					return fmt.Errorf("chunk %d routes to %d, span target %d", idx, got, s.target)
				}
				return nil
			}); err != nil {
				t.Fatalf("trial %d: span %d: %v", trial, i, err)
			}
			if i > 0 {
				prev := spans[i-1]
				if prev.target == s.target && prev.n+s.n <= c.cfg.CoalesceLimit {
					t.Fatalf("trial %d: spans %d/%d should have merged: %+v %+v", trial, i-1, i, prev, s)
				}
			}
			pos += s.n
		}
		if pos != off+n {
			t.Fatalf("trial %d: spans cover [%d,%d), want [%d,%d)", trial, off, pos, off, off+n)
		}
	}
}

// TestCoalescingMergesContiguousSameTarget: with one I/O node every chunk
// shares a target, so a multi-chunk write travels as ONE wire request —
// and the data still round-trips intact.
func TestCoalescingMergesContiguousSameTarget(t *testing.T) {
	store, addrs, daemons := testStack(t, 1)
	c := newTestClient(t, store, 1024)
	c.SetIONs(addrs)

	data := make([]byte, 16*1024) // 16 chunks
	rand.New(rand.NewSource(5)).Read(data)
	if n, err := c.Write("/coalesce", 0, data); err != nil || n != len(data) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if st := c.Stats(); st.ForwardedOps != 1 {
		t.Fatalf("16 same-target chunks should coalesce to 1 wire request, got %d", st.ForwardedOps)
	}
	if ds := daemons[0].Stats(); ds.Writes != 1 || ds.BytesIn != int64(len(data)) {
		t.Fatalf("daemon saw %d writes / %d bytes, want 1 / %d", ds.Writes, ds.BytesIn, len(data))
	}
	got := make([]byte, len(data))
	if _, err := c.Read("/coalesce", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("coalesced round trip corrupted")
	}
}

// TestCoalesceLimitSplitsSpans: the limit bounds a span even when every
// chunk routes to the same node.
func TestCoalesceLimitSplitsSpans(t *testing.T) {
	rec := &stampRecorder{}
	addr := startRecorder(t, rec)
	c, err := NewClient(Config{
		AppID: "app", Direct: pfs.NewStore(pfs.Config{}),
		ChunkSize: 4, CoalesceLimit: 8, // two chunks per span
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})
	if _, err := c.Write("/lim", 0, make([]byte, 20)); err != nil { // 5 chunks
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.stamps) != 3 { // 8 + 8 + 4
		t.Fatalf("saw %d wire requests, want 3 (limit 8, 5 chunks of 4)", len(rec.stamps))
	}
}

// TestApplyMapOutOfOrderConcurrent: mapping updates delivered concurrently
// and out of order must converge on the highest version's allocation. The
// old check-release-reacquire sequence could install an older allocation
// over a newer one while recording the newer version.
func TestApplyMapOutOfOrderConcurrent(t *testing.T) {
	c := newTestClient(t, pfs.NewStore(pfs.Config{}), 0)
	const versions = 64
	var wg sync.WaitGroup
	for v := 1; v <= versions; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			c.ApplyMap(mapping.Map{
				Version: uint64(v),
				IONs:    map[string][]string{"app": {fmt.Sprintf("127.0.0.1:%d", 10000+v)}},
			})
		}(v)
	}
	wg.Wait()
	want := fmt.Sprintf("127.0.0.1:%d", 10000+versions)
	if got := c.IONs(); len(got) != 1 || got[0] != want {
		t.Fatalf("after concurrent out-of-order delivery: addrs=%v, want [%s]", got, want)
	}
	// A straggler with a stale version must change nothing.
	c.ApplyMap(mapping.Map{Version: 1, IONs: map[string][]string{"app": {"127.0.0.1:1"}}})
	if got := c.IONs(); len(got) != 1 || got[0] != want {
		t.Fatalf("stale map applied: addrs=%v", got)
	}
}

// TestApplyMapCurrentRacesFollowerLoop: a version that reaches a client
// twice — from its bus follower and from a registration-time ApplyMap of
// the bus's current map — is applied once, and neither source rolls the
// client back. 200 publications race 200 applies of Current; the client
// never moves to an older map, ends on the final one, and counts one remap
// per version plus one per apply of the unpublished v0.
func TestApplyMapCurrentRacesFollowerLoop(t *testing.T) {
	c := newTestClient(t, pfs.NewStore(pfs.Config{}), 0)
	bus := mapping.NewBus()
	follow(t, bus, c)
	const publications = 200
	addr := func(v uint64) string { return fmt.Sprintf("127.0.0.1:%d", 10000+v) }
	version := func() uint64 { // the version the client's allocation came from
		if got := c.IONs(); len(got) == 1 {
			var port uint64
			fmt.Sscanf(got[0], "127.0.0.1:%d", &port)
			return port - 10000
		}
		return 0
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); v <= publications; v++ {
			bus.Publish(map[string][]string{"app": {addr(v)}})
		}
	}()
	zeros := 0
	for i := 0; i < publications; i++ {
		m := bus.Current()
		if m.Version == 0 {
			zeros++
		}
		before := version()
		c.ApplyMap(m)
		if after := version(); after < before {
			t.Fatalf("applying v%d moved the client from v%d back to v%d", m.Version, before, after)
		}
	}
	wg.Wait()
	if v := version(); v != publications { // the last Publish applied it before returning
		t.Fatalf("client on v%d, the bus published v%d", v, publications)
	}
	if got, most := c.Stats().RemapsApplied, int64(1+zeros+publications); got > most {
		t.Fatalf("%d remaps, at most %d expected: a version was applied twice", got, most)
	}
}

// TestRPCInstrumentedOnPrivateRegistry: with no Config.Telemetry the
// client falls back to a private registry — and the rpc connections it
// dials must land their series on that SAME registry, next to the fwd
// series (the old code handed the rpc layer the nil config value, losing
// every rpc series).
func TestRPCInstrumentedOnPrivateRegistry(t *testing.T) {
	_, addrs, _ := testStack(t, 1)
	c := newTestClient(t, pfs.NewStore(pfs.Config{}), 0) // nil Telemetry
	c.SetIONs(addrs)
	if err := c.Create("/instrumented"); err != nil {
		t.Fatal(err)
	}
	snap := c.reg.Snapshot()
	if snap.Counters["rpc_calls_total"] == 0 {
		t.Fatalf("rpc series missing from the client registry: %v", snap.Counters)
	}
	if snap.Counters[`fwd_forwarded_ops_total{app="app"}`] == 0 {
		t.Fatalf("fwd series missing from the client registry: %v", snap.Counters)
	}
}

// TestReadHoleContiguousPrefix: a read whose middle chunk comes back
// short must report only the contiguous prefix, even when later chunks
// returned data — the count may never cover a hole. (The old code summed
// every chunk's bytes, so 4 + 0 + 4 reported 8 "read" bytes with a hole
// at [4,8).)
func TestReadHoleContiguousPrefix(t *testing.T) {
	fullStore := pfs.NewStore(pfs.Config{})
	shortStore := pfs.NewStore(pfs.Config{})
	addrs := make([]string, 2)
	for i, st := range []*pfs.Store{fullStore, shortStore} {
		d := ion.New(ion.Config{ID: fmt.Sprintf("hole%d", i), Scheduler: agios.NewFIFO()}, st)
		addr, err := d.Start("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		addrs[i] = addr
	}
	c, err := NewClient(Config{
		AppID: "app", Direct: pfs.NewStore(pfs.Config{}),
		ChunkSize: 4, CoalesceLimit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs(addrs)

	// Pick a path whose chunk 1 routes to the short daemon and chunk 2 to
	// the full one, so the hole sits between two readable chunks.
	var path string
	for i := 0; ; i++ {
		p := fmt.Sprintf("/hole%d", i)
		if c.route(p, 1).Addr() == addrs[1] && c.route(p, 2).Addr() == addrs[0] {
			path = p
			break
		}
	}
	data := bytes.Repeat([]byte{9}, 12)
	if err := fullStore.Create(path); err != nil {
		t.Fatal(err)
	}
	if _, err := fullStore.Write(path, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := shortStore.Create(path); err != nil {
		t.Fatal(err)
	}
	if _, err := shortStore.Write(path, 0, data[:4]); err != nil { // chunk 1 missing
		t.Fatal(err)
	}

	buf := make([]byte, 12)
	n, err := c.Read(path, 0, buf)
	if !errors.Is(err, pfs.ErrShortRead) {
		t.Fatalf("want ErrShortRead for a holey read, got n=%d err=%v", n, err)
	}
	if n != 4 {
		t.Fatalf("count %d covers the hole at [4,8); want the contiguous prefix 4", n)
	}
}

// spanServer acks writes and records the largest payload it saw and
// whether every request carried the full set of trailers.
func spanServer(t *testing.T) (addr string, maxData *atomic.Int64, bare *atomic.Bool) {
	t.Helper()
	maxData, bare = &atomic.Int64{}, &atomic.Bool{}
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		if n := int64(len(req.Data)); n > maxData.Load() {
			maxData.Store(n)
		}
		if req.ClientID == "" || req.Seq == 0 || req.Priority == 0 || req.Epoch == 0 {
			bare.Store(true)
		}
		req.Size = int64(len(req.Data))
		req.Data = nil
		return req
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, maxData, bare
}

// TestLargestDefaultSpanIsPooled ties fwd.DefaultCoalesceLimit to the rpc
// body classes, which live in another package: the largest frame a
// default client builds — a full coalesced span under a 256-byte path
// with the dedup, priority and epoch trailers and the checksum on — must
// be served from a pool class on the receiving side. Raising the default
// without a class that holds it makes every such call allocate the whole
// frame again, and this test fail, instead of silently costing a third
// of single-node streaming throughput.
func TestLargestDefaultSpanIsPooled(t *testing.T) {
	addr, maxData, bare := spanServer(t)
	c, err := NewClient(Config{
		AppID: "app", Direct: pfs.NewStore(pfs.Config{}),
		Dedup: true,
		QoS:   &qos.Class{Name: "gold", Tier: qos.TierGuaranteed},
		RPC:   rpc.Options{WireChecksum: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ApplyMap(mapping.Map{Version: 7, IONs: map[string][]string{"app": {addr}}})

	path := "/" + strings.Repeat("p", 255)
	data := make([]byte, DefaultCoalesceLimit)
	write := func() {
		if n, err := c.Write(path, 0, data); err != nil || n != len(data) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
	}
	write()
	if st := c.Stats(); st.ForwardedOps != 1 || maxData.Load() != DefaultCoalesceLimit || bare.Load() {
		t.Fatalf("want one fully stamped %d-byte span, got %d wire requests, largest %d bytes, missing trailers: %v",
			DefaultCoalesceLimit, st.ForwardedOps, maxData.Load(), bare.Load())
	}
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	const budget = 64 << 10
	best := testkit.SteadyStateBytesPerCall(10, budget, write)
	if best >= budget {
		t.Fatalf("a default-limit span allocates %d bytes per write: its frame is not served from an rpc pool class", best)
	}
}

// TestSpanAboveTopClassWorksUnpooled: a user-raised CoalesceLimit builds
// frames no class holds. They must still round-trip, and their buffers
// must be dropped on release — not filed under a smaller class, where a
// chunk-sized request would be handed a span-sized buffer and the pool
// would pin it.
func TestSpanAboveTopClassWorksUnpooled(t *testing.T) {
	store, addrs, daemons := testStack(t, 1)
	const big = int(2 * DefaultCoalesceLimit)
	c, err := NewClient(Config{AppID: "app", Direct: store, CoalesceLimit: int64(big)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs(addrs)

	data := make([]byte, big)
	rand.New(rand.NewSource(9)).Read(data)
	got := make([]byte, big)
	for i := 0; i < 4; i++ {
		if n, err := c.Write("/big", 0, data); err != nil || n != big {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		if n, err := c.Read("/big", 0, got); err != nil || n != big {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("oversize span round trip corrupted")
		}
	}
	if ds := daemons[0].Stats(); ds.Writes != 4 || ds.Reads != 4 {
		t.Fatalf("daemon saw %d writes / %d reads, want 4 / 4 single-span requests", ds.Writes, ds.Reads)
	}
	// Drain the chunk-sized class without returning anything: a retained
	// giant cannot hide behind the pool's other entries.
	for i := 0; i < 32; i++ {
		if b := rpc.GetBuffer(int(DefaultChunkSize)); cap(b) >= int(DefaultCoalesceLimit) {
			t.Fatalf("a %d-byte request was handed a %d-byte buffer: an oversize frame was retained", int64(DefaultChunkSize), cap(b))
		}
	}
}

// TestLoneSpanAllocationPin pins what the forwarded path allocates per op
// on a bare client: nothing — one span, the common case, runs inline, and
// a multi-span op fans out on a pooled record. A shared helper that takes
// a func literal or a counts buffer moves both to the heap on every op
// (escape analysis is per function), which an end-to-end bench only shows
// after a ten-pair run; this shows it at once.
func TestLoneSpanAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	payload := bytes.Repeat([]byte{7}, 8*4096)
	addr, _ := inflightProbe(t, payload)
	c, err := NewClient(Config{
		AppID: "app", Direct: pfs.NewStore(pfs.Config{}),
		ChunkSize: 4096, CoalesceLimit: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})
	buf := make([]byte, len(payload))
	ops := []struct {
		name string
		want float64 // may only go down
		run  func()
	}{
		{"write 4 KiB", 0, func() {
			if n, err := c.Write("/pin", 0, payload[:4096]); err != nil || n != 4096 {
				t.Fatalf("write: n=%d err=%v", n, err)
			}
		}},
		{"read 4 KiB", 0, func() {
			if n, err := c.Read("/pin", 0, buf[:4096]); err != nil || n != 4096 {
				t.Fatalf("read: n=%d err=%v", n, err)
			}
		}},
		{"stat", 0, func() {
			if _, err := c.Stat("/pin"); err != nil {
				t.Fatalf("stat: %v", err)
			}
		}},
		{"write 2 spans", 0, func() { // the fan-out runs on a pooled record
			if n, err := c.Write("/pin", 0, payload[:8192]); err != nil || n != 8192 {
				t.Fatalf("write: n=%d err=%v", n, err)
			}
		}},
		{"write 8 spans", 0, func() { // maxParallelSpans: the record's fixed buffers, full
			if n, err := c.Write("/pin", 0, payload); err != nil || n != len(payload) {
				t.Fatalf("write: n=%d err=%v", n, err)
			}
		}},
		{"read 8 spans", 0, func() {
			if n, err := c.Read("/pin", 0, buf); err != nil || n != len(buf) {
				t.Fatalf("read: n=%d err=%v", n, err)
			}
		}},
	}
	for _, op := range ops {
		for i := 0; i < 8; i++ {
			op.run() // dial, prime the pools
		}
		if got := testing.AllocsPerRun(200, op.run); got > op.want {
			t.Errorf("%s: %.1f allocs/op, want ≤ %.0f", op.name, got, op.want)
		}
	}
}
