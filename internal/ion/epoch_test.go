package ion

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// TestFenceRejectsRevokedEpoch pins the fencing contract end to end: a
// write stamped below the fence is rejected as ErrStaleEpoch with the
// floor attached, never touches the backend, and counts a rejection;
// writes at/above the fence and unstamped writes still apply.
func TestFenceRejectsRevokedEpoch(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	d, cli := startDaemon(t, Config{ID: "ion0", EpochFencing: true, Telemetry: reg}, store)

	// Before any fence: stamped writes of any epoch apply.
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/f", Offset: 0, Data: []byte("aaaa"), Epoch: 1}); err != nil {
		t.Fatalf("pre-fence write: %v", err)
	}

	d.SetFence(5)
	if d.Fence() != 5 {
		t.Fatalf("fence = %d, want 5", d.Fence())
	}
	// Monotonic: a lower fence must not lower the floor.
	d.SetFence(3)
	if d.Fence() != 5 {
		t.Fatalf("fence lowered to %d", d.Fence())
	}

	// A revoked-epoch write is fenced and leaves no bytes behind.
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/f", Offset: 0, Data: []byte("XXXX"), Epoch: 4})
	if !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("want ErrStaleEpoch, got %v", err)
	}
	if fence := err.(*rpc.Error).Fence; fence != 5 {
		t.Fatalf("fence floor = %d, want 5", fence)
	}
	if resp != nil {
		resp.Release()
	}
	buf := make([]byte, 4)
	if _, err := store.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "aaaa" {
		t.Fatalf("fenced write reached the backend: %q", buf)
	}
	if v := reg.Counter(`epoch_fence_rejections_total{node="ion0"}`).Value(); v != 1 {
		t.Fatalf("epoch_fence_rejections_total = %d, want 1", v)
	}

	// At the fence: applies.
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/f", Offset: 0, Data: []byte("bbbb"), Epoch: 5}); err != nil {
		t.Fatalf("at-fence write: %v", err)
	}
	// Unstamped (pre-epoch client): never fenced.
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/f", Offset: 0, Data: []byte("cccc")}); err != nil {
		t.Fatalf("unstamped write: %v", err)
	}
	if _, err := store.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "cccc" {
		t.Fatalf("post-fence writes lost: %q", buf)
	}
}

// TestFenceRunsBeforeDedup pins the ordering that keeps retries honest:
// a fenced write must not claim a dedup slot, so the same (client, seq)
// re-sent under a fresh epoch executes normally instead of replaying
// the rejection.
func TestFenceRunsBeforeDedup(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d, cli := startDaemon(t, Config{ID: "ion0", EpochFencing: true, DedupWindow: 16}, store)
	d.SetFence(10)

	stale := &rpc.Message{Op: rpc.OpWrite, Path: "/g", Data: []byte("old!"), ClientID: "c1", Seq: 7, Epoch: 9}
	if _, err := cli.Call(stale); !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("want ErrStaleEpoch, got %v", err)
	}

	// Same identity, fresh epoch: must apply (not replay the rejection).
	fresh := &rpc.Message{Op: rpc.OpWrite, Path: "/g", Data: []byte("new!"), ClientID: "c1", Seq: 7, Epoch: 10}
	resp, err := cli.Call(fresh)
	if err != nil {
		t.Fatalf("fresh-epoch retry: %v", err)
	}
	if resp.Replayed {
		t.Fatal("fenced write leaked into the dedup window: retry was replayed")
	}
	buf := make([]byte, 4)
	if _, err := store.Read("/g", 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "new!" {
		t.Fatalf("retry not applied: %q", buf)
	}
}

// TestFencedRetryOfAnAppliedWriteReplays is the regression for a double
// apply the all-defences stress (scenario.TestTortureAllDefences) found: a
// write applies, its response is lost, a recovery raises the fence, and the
// transport retry — same stamp, now-revoked epoch — arrives. Rejected as
// stale, it tells the client the bytes never landed, so the client re-sends
// them under a new stamp and this node applies them a second time. The
// retry must replay what happened instead; a stale write that never
// applied is still fenced.
func TestFencedRetryOfAnAppliedWriteReplays(t *testing.T) {
	store := &countingBackend{Store: pfs.NewStore(pfs.Config{})}
	d, cli := startOn(t, Config{ID: "ion0", EpochFencing: true, DedupWindow: 16}, store, 2)
	write := func(seq uint64) (*rpc.Message, error) {
		return cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/a", Data: []byte("once"), ClientID: "c1", Seq: seq, Epoch: 4})
	}
	if _, err := write(3); err != nil {
		t.Fatal(err)
	}
	d.SetFence(5)
	resp, err := write(3)
	if err != nil || !resp.Replayed {
		t.Fatalf("fenced retry of an applied write: err=%v, want a replay", err)
	}
	resp.Release()
	if _, err := write(4); !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("stale write that never applied: want ErrStaleEpoch, got %v", err)
	}
	if n := store.applies.Load(); n != 1 {
		t.Fatalf("backend applied the write %d times, want once", n)
	}
}

// TestFenceDisabledByDefault pins the opt-in contract: without
// EpochFencing, SetFence is inert, stamped writes always apply, and no
// epoch_* series is registered.
func TestFenceDisabledByDefault(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	reg := telemetry.New()
	d, cli := startDaemon(t, Config{ID: "ion0", Telemetry: reg}, store)
	d.SetFence(100)
	if d.Fence() != 0 {
		t.Fatalf("SetFence took effect without EpochFencing: %d", d.Fence())
	}
	if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/h", Data: []byte("ok"), Epoch: 1}); err != nil {
		t.Fatalf("stamped write on unfenced daemon: %v", err)
	}
	for name := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "epoch_") {
			t.Fatalf("epoch series registered without fencing: %s", name)
		}
	}
}

// TestFenceSurvivesWarmRestart: like the dedup window, the fence floor
// must persist across a daemon warm restart — the stale clients it
// exists to stop are exactly the ones a blackout strands.
func TestFenceSurvivesWarmRestart(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	d, cli := startDaemon(t, Config{ID: "ion0", EpochFencing: true}, store)
	d.SetFence(8)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	addr, err := d.Restart(nil)
	if err != nil {
		t.Fatal(err)
	}
	cli2 := rpc.Dial(addr, 1)
	defer cli2.Close()
	if _, err := cli2.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/r", Data: []byte("x"), Epoch: 7}); !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("fence lost across warm restart: %v", err)
	}
}
