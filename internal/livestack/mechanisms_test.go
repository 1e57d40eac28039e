package livestack

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agios"
	"repro/internal/apps"
	"repro/internal/fwd"
	"repro/internal/ion"
	"repro/internal/pfs"
	"repro/internal/testkit"
	"repro/internal/units"
)

// TestAggregationReducesPFSRequests verifies the first mechanism behind
// forwarding gains: many small contiguous client writes are merged by the
// I/O node's AIOLI scheduler into fewer, larger PFS dispatches.
func TestAggregationReducesPFSRequests(t *testing.T) {
	run := func(sched agios.Scheduler) (clientWrites, pfsWrites int64) {
		// A slow backend (per-extent positioning latency) lets requests
		// accumulate in the scheduler queue, as on a loaded I/O node.
		store := pfs.NewStore(pfs.Config{SeekLatency: 200 * time.Microsecond})
		d := ion.New(ion.Config{ID: "agg", Scheduler: sched, Dispatchers: 1}, store)
		addr, err := d.Start("")
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		client, err := fwd.NewClient(fwd.Config{AppID: "a", Direct: store, ChunkSize: 64 * units.KiB, PoolSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		client.SetIONs([]string{addr})

		// 16 ranks writing a 1D-interleaved shared file (rank r owns
		// every 16th 4-KiB block): at any instant the queue holds ~16
		// adjacent blocks, which an offset-sorting scheduler can merge.
		var wg sync.WaitGroup
		for r := 0; r < 16; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]byte, 4*units.KiB)
				for i := int64(0); i < 16; i++ {
					off := (i*16 + int64(r)) * 4 * units.KiB
					if _, err := client.Write("/shared", off, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		return d.Stats().Writes, store.Metrics().WriteOps
	}

	fifoClient, fifoPFS := run(agios.NewFIFO())
	aioliClient, aioliPFS := run(agios.NewAIOLI(0))
	if fifoClient != aioliClient {
		t.Fatalf("same client load expected: %d vs %d", fifoClient, aioliClient)
	}
	// FIFO dispatches one PFS write per client write; AIOLI merges.
	if aioliPFS >= fifoPFS {
		t.Fatalf("AIOLI should reduce PFS requests: FIFO %d → AIOLI %d", fifoPFS, aioliPFS)
	}
	t.Logf("256 client writes → %d PFS writes under FIFO, %d under AIOLI", fifoPFS, aioliPFS)
}

// TestFewerWritersReduceLockHandoffs verifies the second mechanism: with a
// lock-penalized shared file, funneling all ranks through one I/O node
// produces one writer stream at the PFS, eliminating lock handoffs that
// direct access provokes.
func TestFewerWritersReduceLockHandoffs(t *testing.T) {
	const ranks = 8
	const writes = 20
	load := func(fs pfs.FileSystem, writer func(rank int) pfs.FileSystem) {
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				target := fs
				if writer != nil {
					target = writer(r)
				}
				buf := make([]byte, 8*units.KiB)
				base := int64(r) * writes * 8 * units.KiB
				for i := int64(0); i < writes; i++ {
					if _, err := target.Write("/locky", base+i*8*units.KiB, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}

	// Direct: each rank is its own writer identity (distinct clients).
	direct := pfs.NewStore(pfs.Config{LockLatency: 100 * time.Microsecond})
	var directClients []*directRank
	for r := 0; r < ranks; r++ {
		directClients = append(directClients, &directRank{store: direct, id: fmt.Sprintf("rank%d", r)})
	}
	load(direct, func(r int) pfs.FileSystem { return directClients[r] })
	directHandoffs := direct.Metrics().LockWaits

	// Forwarded through ONE I/O node: a single writer stream at the PFS.
	fwdStore := pfs.NewStore(pfs.Config{LockLatency: 100 * time.Microsecond})
	d := ion.New(ion.Config{ID: "solo", Scheduler: agios.NewFIFO(), Dispatchers: 1}, fwdStore)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client, err := fwd.NewClient(fwd.Config{AppID: "a", Direct: fwdStore})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetIONs([]string{addr})
	load(client, nil)
	fwdHandoffs := fwdStore.Metrics().LockWaits

	if fwdHandoffs >= directHandoffs {
		t.Fatalf("forwarding should reduce shared-file lock handoffs: direct %d vs forwarded %d",
			directHandoffs, fwdHandoffs)
	}
	t.Logf("shared-file lock handoffs: %d direct writers → %d through one I/O node",
		directHandoffs, fwdHandoffs)
}

// directRank attributes writes to a rank identity on the underlying store.
type directRank struct {
	store *pfs.Store
	id    string
}

var _ pfs.FileSystem = (*directRank)(nil)

func (d *directRank) Create(path string) error { return d.store.Create(path) }
func (d *directRank) Write(path string, off int64, p []byte) (int, error) {
	return d.store.WriteAs(d.id, path, off, p)
}
func (d *directRank) Read(path string, off int64, p []byte) (int, error) {
	return d.store.Read(path, off, p)
}
func (d *directRank) Stat(path string) (pfs.FileInfo, error) { return d.store.Stat(path) }
func (d *directRank) Remove(path string) error               { return d.store.Remove(path) }
func (d *directRank) Fsync(path string) error                { return d.store.Fsync(path) }

// TestLiveFigure5Sweep runs a scaled HACC kernel at several allocation
// sizes over a throttled PFS — the live analogue of one Figure 5 column —
// and checks a file-per-process workload scales with I/O nodes until the
// backend saturates.
func TestLiveFigure5Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("live sweep with throttled PFS")
	}
	if testkit.RaceEnabled {
		t.Skip("bandwidth ratios are unreliable under race-detector overhead")
	}
	// Each I/O node dispatches serially (one dispatcher) against a
	// rate-limited eight-OST backend: with one I/O node the dispatch
	// stream is the bottleneck; with four, streams run in parallel
	// across the OSTs — the regime where MN4's large file-per-process
	// jobs profit from more forwarders (perfmodel's PerStreamRate).
	st, err := Start(Config{
		IONs:        4,
		Dispatchers: 1,
		PFS: pfs.Config{
			OSTs:    8,
			OSTRate: units.Bandwidth(128 * units.MiB),
			Discard: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	kernel := apps.HACC{Ranks: 32, Particles: 20_000, HeaderBytes: 64 * units.KiB}
	bw := map[int]float64{}
	var lastBytes int64
	for _, k := range []int{1, 4} {
		// Standalone client with a pinned allocation (bus-subscribed
		// clients would be remapped by the arbiter's empty map).
		client, err := fwd.NewClient(fwd.Config{AppID: fmt.Sprintf("sweep%d", k), Direct: st.Store})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		client.SetIONs(st.Addrs[:k])
		rep, err := kernel.Run(client, fmt.Sprintf("/sweep%d", k))
		if err != nil {
			t.Fatal(err)
		}
		// All traffic must actually have gone through the daemons.
		var daemonBytes int64
		for _, d := range st.Daemons {
			daemonBytes += d.Stats().BytesIn
		}
		if daemonBytes-lastBytes != rep.WriteBytes {
			t.Fatalf("k=%d: daemons saw %d bytes, kernel wrote %d — traffic bypassed forwarding",
				k, daemonBytes-lastBytes, rep.WriteBytes)
		}
		lastBytes = daemonBytes
		bw[k] = rep.Bandwidth.MBps()
		t.Logf("%d I/O nodes: %.1f MB/s (%s)", k, bw[k], rep.Elapsed.Round(time.Millisecond))
	}
	if bw[4] <= bw[1]*1.5 {
		t.Fatalf("wide fpp workload should scale with I/O nodes: %v", bw)
	}
}
