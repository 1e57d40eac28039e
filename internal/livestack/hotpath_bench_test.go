package livestack

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/units"
)

// BenchmarkHotPathWrite is the forwarding data-plane benchmark behind
// BENCH_hotpath.json (make bench-hotpath): one client forwarding
// 512 KiB writes — exactly one chunk at the default chunk size — through
// one live I/O node over loopback TCP into the in-memory PFS, plus a
// 64 KiB and a 4 KiB request, where per-message cost (framing, syscalls,
// the daemon's handler and dispatch) is all there is. Allocations are
// reported process-wide, so the figure covers the client encode path, the
// server decode path, the AGIOS queue, and the dispatch together; the
// per-layer wire budget is enforced separately by
// rpc.BenchmarkWirePathWrite512K.
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
	st, err := Start(Config{IONs: 1, Scheduler: "FIFO"})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Arbiter.JobStarted(policy.Application{ID: "bench", Nodes: 1, Processes: 1}); err != nil {
		b.Fatal(err)
	}
	client, err := st.NewClient("bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := waitForSomeAllocation(client, 2*time.Second); err != nil {
		b.Fatal(err)
	}
	if err := client.Create("/bench/hot"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write("/bench/hot", 0, payload); err != nil {
			b.Fatal(err)
		}
	}
}
