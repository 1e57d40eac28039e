package ion

import (
	"testing"

	"repro/internal/agios"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/testkit"
)

// TestHandlerAllocationPin: once its pools are warm the daemon's handler
// allocates nothing per request — the response envelope is the transport's,
// the scheduler record is recycled, a read's bytes land in a pooled buffer
// — under the default scheduler, under the one small requests run on, and
// with the QoS scheduler and an armed dedup window that never sees a retry
// (every write a fresh seq). The response is released the way the rpc
// server does after its write.
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
		d := New(cfg, pfs.NewStore(pfs.Config{}))
		reqs := []*rpc.Message{
			write,
			{Op: rpc.OpRead, Path: "/pin", Size: 4096},
			{Op: rpc.OpStat, Path: "/pin"},
		}
		for _, req := range reqs {
			serve := func() {
				if req.ClientID != "" {
					req.Seq++
				}
				resp := d.handle(req)
				if resp.Err != "" {
					t.Fatalf("%s %v: %s", sched, req.Op, resp.Err)
				}
				resp.Release()
			}
			for i := 0; i < 8; i++ {
				serve()
			}
			if got := testing.AllocsPerRun(200, serve); got > 0 {
				t.Errorf("%s %v: %.1f allocs per request, want 0", sched, req.Op, got)
			}
		}
	}
}
