package livestack

import (
	"testing"
	"time"

	"repro/internal/fwd"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/testkit"
	"repro/internal/units"
)

// BenchmarkHotPathWrite is the forwarding data-plane benchmark, kept for
// ad-hoc use (bench/ owns every time-valued number): one client forwarding
// 512 KiB writes — exactly one chunk at the default chunk size — through
// one live I/O node over loopback TCP into the in-memory PFS, plus a
// 64 KiB and a 4 KiB request, where per-message cost (framing, syscalls,
// the daemon's handler and dispatch) is all there is. Allocations are
// reported process-wide, so the figure covers the client encode path, the
// server decode path, the AGIOS queue, and the dispatch together; the
// per-layer wire budget is enforced separately by rpc.TestWirePathBudgets,
// and TestHotPathWriteAllocs gates the count reported here.
func BenchmarkHotPathWrite(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int64
	}{
		{"512K", 512 * units.KiB},
		{"64K", 64 * units.KiB},
		{"4K", 4 * units.KiB},
	} {
		b.Run(sz.name, func(b *testing.B) {
			benchmarkHotPathWrite(b, sz.n)
		})
	}
}

func benchmarkHotPathWrite(b *testing.B, size int64) {
	write := hotPathWriter(b, Config{IONs: 1, Scheduler: "FIFO"}, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}

// hotPathWriter starts a one-node stack from cfg with one forwarding client
// and returns a func that forwards one write of size bytes.
func hotPathWriter(tb testing.TB, cfg Config, size int64) (write func()) {
	client := hotPathClient(tb, cfg)
	payload := make([]byte, size)
	return func() {
		if _, err := client.Write("/bench/hot", 0, payload); err != nil {
			tb.Fatal(err)
		}
	}
}

// hotPathClient starts a one-node stack from cfg and returns a forwarding
// client routed to its node, with /bench/hot created.
func hotPathClient(tb testing.TB, cfg Config) *fwd.Client {
	st, err := Start(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	if _, err := st.Arbiter.JobStarted(policy.Application{ID: "bench", Nodes: 1, Processes: 1}); err != nil {
		tb.Fatal(err)
	}
	client, err := st.NewClient("bench")
	if err != nil {
		tb.Fatal(err)
	}
	if err := WaitForAllocation(client, 0, 2*time.Second); err != nil {
		tb.Fatal(err)
	}
	if err := client.Create("/bench/hot"); err != nil {
		tb.Fatal(err)
	}
	return client
}

// TestHotPathReadAllocs gates one forwarded read the same way: the
// request, the daemon's reply lent from the store's blocks and decoded
// straight into the caller's buffer, and the lease's return allocate
// nothing — from 4 KiB to one default-sized span, traced or not.
func TestHotPathReadAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	for _, size := range []int64{4 * units.KiB, 512 * units.KiB, 2 * units.MiB} {
		for _, traced := range []bool{false, true} {
			cfg := Config{IONs: 1, Scheduler: "FIFO"}
			if traced {
				cfg.Tracer = telemetry.NewTracer(0)
			}
			client := hotPathClient(t, cfg)
			buf := make([]byte, size)
			if _, err := client.Write("/bench/hot", 0, buf); err != nil {
				t.Fatal(err)
			}
			read := func() {
				if n, err := client.Read("/bench/hot", 0, buf); err != nil || int64(n) != size {
					t.Fatalf("read %d of %d bytes: %v", n, size, err)
				}
			}
			for i := 0; i < 16; i++ {
				read() // prime the pools
			}
			if got := testing.AllocsPerRun(200, read); got > 0 {
				t.Errorf("forwarded %d-byte read (traced %v): %.0f allocs/op end to end, budget 0", size, traced, got)
			}
		}
	}
}

// TestHotPathWriteAllocs gates the end-to-end allocation count of one
// forwarded write, process-wide: client encode, server decode into the
// store's fresh blocks, the AGIOS queue and the install together allocate
// nothing, at one default span, one chunk and 4 KiB alike — and so does
// recording the write's trace (fwd, rpc, ion, agios and pfs hops) when the
// stack has a tracer.
func TestHotPathWriteAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	for _, row := range []struct {
		size   int64
		traced bool
	}{
		{2 * units.MiB, false},
		{512 * units.KiB, false},
		{4 * units.KiB, false},
		{2 * units.MiB, true},
		{512 * units.KiB, true},
		{4 * units.KiB, true},
	} {
		cfg := Config{IONs: 1, Scheduler: "FIFO"}
		if row.traced {
			cfg.Tracer = telemetry.NewTracer(0)
		}
		write := hotPathWriter(t, cfg, row.size)
		for i := 0; i < 16; i++ {
			write() // prime the pools
		}
		if got := testing.AllocsPerRun(500, write); got > 0 {
			t.Errorf("forwarded %d-byte write (traced %v): %.0f allocs/op end to end, budget 0", row.size, row.traced, got)
		}
	}
}
