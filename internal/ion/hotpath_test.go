package ion

import (
	"io"
	"testing"

	"repro/internal/agios"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/testkit"
)

// TestHandlerAllocationPin: once its pools are warm the daemon's handler
// allocates nothing per request — the response envelope is the transport's,
// the scheduler record is recycled, a read's reply is lent the store's
// blocks — under the default scheduler, under the one small requests run
// on, and with the QoS scheduler and an armed dedup window that never sees
// a retry (every write a fresh seq). The response is released the way the
// rpc server does after its write. The last row writes into a block the
// 2 MiB read just lent: a reply that kept its lease would make that write
// copy the block.
func TestHandlerAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	for _, sched := range []string{"FIFO", "AIOLI", "WFQ"} {
		s, err := agios.NewByName(sched)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{ID: "pin", Scheduler: s}
		payload := make([]byte, 4096)
		write := &rpc.Message{Op: rpc.OpWrite, Path: "/pin", Data: payload}
		if sched == "WFQ" {
			cfg.DedupWindow = 256
			write.ClientID, write.Priority = "app#1", 3
		}
		store := pfs.NewStore(pfs.Config{})
		if _, err := store.Write("/pin", 0, make([]byte, 2<<20)); err != nil {
			t.Fatal(err)
		}
		d := New(cfg, store)
		for _, row := range []struct {
			name string
			reqs []*rpc.Message
		}{
			{"write", []*rpc.Message{write}},
			{"read", []*rpc.Message{{Op: rpc.OpRead, Path: "/pin", Size: 4096}}},
			{"stat", []*rpc.Message{{Op: rpc.OpStat, Path: "/pin"}}},
			{"2 MiB read, then a write to the same block", []*rpc.Message{{Op: rpc.OpRead, Path: "/pin", Size: 2 << 20}, write}},
		} {
			serve := func() {
				for _, req := range row.reqs {
					if req.ClientID != "" {
						req.Seq++
					}
					resp := d.handle(req)
					if resp.Err != "" {
						t.Fatalf("%s %v: %s", sched, req.Op, resp.Err)
					}
					resp.Release()
				}
			}
			for i := 0; i < 8; i++ {
				serve()
			}
			if got := testing.AllocsPerRun(200, serve); got > 0 {
				t.Errorf("%s %s: %.1f allocs per request, want 0", sched, row.name, got)
			}
		}
	}
}

// BenchmarkReadReply2M is one 2 MiB read reply, handled and written out:
// lent from the store's blocks, and through the copy adapter a backend
// without ReadLease gets.
func BenchmarkReadReply2M(b *testing.B) {
	store := pfs.NewStore(pfs.Config{})
	if _, err := store.Write("/r", 0, make([]byte, 2<<20)); err != nil {
		b.Fatal(err)
	}
	for _, side := range []struct {
		name    string
		backend Backend
	}{
		{"lease", store},
		{"copy", struct{ Backend }{store}}, // the embedding hides ReadLease
	} {
		b.Run(side.name, func(b *testing.B) {
			d := New(Config{ID: "bench"}, side.backend)
			req := &rpc.Message{Op: rpc.OpRead, Path: "/r", Size: 2 << 20}
			b.SetBytes(2 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp := d.handle(req)
				if err := rpc.WriteMessage(io.Discard, resp); err != nil || resp.Size != 2<<20 {
					b.Fatalf("reply of %d bytes: %v %s", resp.Size, err, resp.Err)
				}
				resp.Release()
			}
		})
	}
}
