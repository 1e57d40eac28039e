package livestack

// Blackout tests: the control plane (arbiter + prober + scaler + fence
// fan-out) is SIGKILLed while the data plane keeps serving, then warm
// restarted from the write-ahead journal. Oracles, per the recovery
// design (DESIGN.md §11):
//
//   - byte conservation — every acked write of every app is on the PFS,
//     bit-exact, across every blackout, daemon kill, and remap;
//   - zero fenced writes applied — a write stamped with a revoked epoch
//     is rejected by the daemons and leaves no bytes behind (probed
//     directly with a hand-built stale request);
//   - recovered state equals the journaled state modulo no-shrink — jobs
//     and pool membership survive, minus nodes that died during the
//     blackout, and no job's allocation shrinks below what the pruning
//     explains;
//   - bounded client stall — writes issued during the blackout and the
//     recovery fence complete within a budget (the direct PFS path and
//     the remap-and-retry loop keep the data plane live, the control
//     plane is not on the write path);
//   - the blackout is observable — journal_* and epoch_* counters move.
//
// `make blackout` runs this twice under the race detector. Reproduce a
// failing schedule with BLACKOUT_SEED=<n> make blackout.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fwd"
	"repro/internal/journal"
	"repro/internal/nodestate"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// blackoutSeed returns the nemesis schedule seed: BLACKOUT_SEED when
// set, else 1 so CI runs are deterministic.
func blackoutSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("BLACKOUT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("BLACKOUT_SEED=%q: %v", s, err)
		}
		return v
	}
	return 1
}

// TestBlackoutWritesSurviveControlPlaneCrash is the acceptance scenario:
// a 12-ION journaled stack, two apps writing continuously, and a nemesis
// that kills the control plane twice — once clean, once compounded by an
// I/O-node death during the blackout — and restarts it from the journal
// each time, with a third job submitted between the blackouts to prove
// the recovered arbiter is live, not a read-only replica.
func TestBlackoutWritesSurviveControlPlaneCrash(t *testing.T) {
	seed := blackoutSeed(t)
	rng := rand.New(rand.NewSource(seed))
	st, err := Start(Config{
		IONs:       12,
		Scheduler:  "FIFO",
		ChunkSize:  4096,
		RPC:        chaosRPC(),
		JournalDir: t.TempDir(),

		HealthInterval:      20 * time.Millisecond,
		HealthTimeout:       250 * time.Millisecond,
		HealthFailThreshold: 3,
		HealthRiseThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := st.Telemetry

	const (
		appsN      = 2
		writersN   = 4
		segsPer    = 8
		segSize    = 8192
		appBytes   = writersN * segsPer * segSize
		stallLimit = 10 * time.Second
	)
	labels := []string{"IOR-MPI", "HACC"}
	clients := make([]*clientUnderTest, appsN)
	for a := 0; a < appsN; a++ {
		id := fmt.Sprintf("bo%d", a)
		if _, err := st.Arbiter.JobStarted(appFor(t, labels[a], id)); err != nil {
			t.Fatal(err)
		}
		c, err := st.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := waitForSomeAllocation(c, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		path := "/blackout/" + id
		if err := c.Create(path); err != nil {
			t.Fatal(err)
		}
		clients[a] = &clientUnderTest{Client: c, path: path}
	}

	// Writers rewrite their disjoint regions round-robin until told to
	// stop, but never stop before one full pass, so the verification
	// window is always completely acked. Identical bytes per offset make
	// every remap/retry interleaving idempotent. Each write's latency
	// feeds the stall oracle.
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	stopWriters := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	// A writer that fails after the test body has bailed out via Fatalf
	// must never Errorf into a completed test: drain the writers first.
	defer stopWriters()
	var maxStallNs atomic.Int64
	for a := range clients {
		for w := 0; w < writersN; w++ {
			wg.Add(1)
			go func(c *clientUnderTest, w int) {
				defer wg.Done()
				seg := make([]byte, segSize)
				for iter := 0; ; iter++ {
					if iter >= segsPer {
						select {
						case <-stop:
							return
						default:
						}
					}
					off := int64(w*segsPer+iter%segsPer) * segSize
					fill(off, seg)
					begin := time.Now()
					n, err := c.Write(c.path, off, seg)
					took := time.Since(begin).Nanoseconds()
					for {
						cur := maxStallNs.Load()
						if took <= cur || maxStallNs.CompareAndSwap(cur, took) {
							break
						}
					}
					if err != nil || n != segSize {
						t.Errorf("%s writer %d: n=%d err=%v", c.path, w, n, err)
						return
					}
				}
			}(clients[a], w)
		}
	}

	var killedDuringBlackout string
	for cycle := 0; cycle < 2; cycle++ {
		time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
		before := st.Arbiter.Current()
		preCrashVersion := st.Bus.Version()
		if err := st.CrashControlPlane(); err != nil {
			t.Fatal(err)
		}
		if st.Arbiter != nil || st.Journal != nil || st.Health != nil {
			t.Fatal("control plane still referenced after the crash")
		}

		// Second blackout is compounded: an allocated I/O node dies while
		// nobody is watching. Recovery must find the corpse by probing.
		if cycle == 1 {
			alloc := before["bo0"]
			killedDuringBlackout = alloc[rng.Intn(len(alloc))]
			if d := st.DaemonAt(killedDuringBlackout); d != nil {
				d.Close()
			}
		}
		// The blackout window: the data plane runs headless.
		time.Sleep(time.Duration(100+rng.Intn(150)) * time.Millisecond)

		if err := st.RecoverControlPlane(); err != nil {
			t.Fatalf("cycle %d recover: %v", cycle, err)
		}
		if st.Arbiter == nil || st.Journal == nil {
			t.Fatal("recovery left no control plane")
		}

		// Recovered state equals the journaled state modulo no-shrink:
		// every registered job survives, and on a clean blackout (no
		// capacity change to explain a re-balance) no job's allocation
		// shrinks. A death during the blackout changes the solve's input,
		// so there the oracle is exclusion of the corpse (checked below),
		// not allocation sizes.
		after := st.Arbiter.Current()
		for job, had := range before {
			if _, ok := after[job]; !ok {
				t.Fatalf("cycle %d: job %s lost in recovery", cycle, job)
			}
			if killedDuringBlackout == "" && len(after[job]) < len(had) {
				t.Fatalf("cycle %d: no-shrink violated for %s: %d -> %d nodes",
					cycle, job, len(had), len(after[job]))
			}
		}
		// The fence revokes every pre-crash epoch.
		if m := st.Bus.Current(); m.Fence <= preCrashVersion {
			t.Fatalf("cycle %d: fence %d does not revoke pre-crash version %d", cycle, m.Fence, preCrashVersion)
		}

		// The recovered arbiter is live: a fresh job between blackouts gets
		// an allocation decision (possibly empty at this pool, never an
		// error), proving the solver and journal are accepting writes.
		if cycle == 0 {
			if _, err := st.Arbiter.JobStarted(appFor(t, "BT-C", "bolate")); err != nil {
				t.Fatalf("JobStarted on the recovered arbiter: %v", err)
			}
		}
	}
	if killedDuringBlackout != "" {
		if !contains(st.Arbiter.NodesIn(nodestate.Down), killedDuringBlackout) {
			t.Fatalf("node killed during the blackout not marked down on recovery: down=%v", st.Arbiter.NodesIn(nodestate.Down))
		}
		if contains(st.Arbiter.Current()["bo0"], killedDuringBlackout) {
			t.Fatal("recovered mapping still routes to the node that died during the blackout")
		}
	}

	stopWriters()
	if t.Failed() {
		t.FailNow()
	}

	// Bounded client stall: the control plane is not on the write path,
	// so no single write — issued before, during, or after a blackout —
	// may stall past the budget.
	if stall := time.Duration(maxStallNs.Load()); stall > stallLimit {
		t.Fatalf("a write stalled %v across the blackouts (budget %v)", stall, stallLimit)
	}

	// Zero fenced writes applied, probed directly: a hand-built write
	// stamped with epoch 1 — revoked by both recoveries — must be
	// rejected by a live daemon and leave no bytes behind, while the same
	// write restamped with the current epoch applies.
	target := st.Arbiter.Pool()[0]
	if target == killedDuringBlackout {
		target = st.Arbiter.Pool()[1]
	}
	rejectsBefore := fenceRejectionTotal(reg)
	raw := rpc.Dial(target, 1)
	defer raw.Close()
	resp, err := raw.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/blackout/stale", Data: []byte("REVOKED"), Epoch: 1})
	if !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("stale-epoch probe: want ErrStaleEpoch, got %v", err)
	}
	if resp != nil {
		resp.Release()
	}
	if _, err := st.Store.Stat("/blackout/stale"); err == nil {
		t.Fatal("a fenced write left bytes on the PFS")
	}
	fresh := st.Bus.Current().Version
	if _, err := raw.Call(&rpc.Message{Op: rpc.OpWrite, Path: "/blackout/stale", Data: []byte("CURRENT"), Epoch: fresh}); err != nil {
		t.Fatalf("current-epoch write after the probe: %v", err)
	}
	if got := fenceRejectionTotal(reg); got != rejectsBefore+1 {
		t.Fatalf("epoch_fence_rejections_total moved %d -> %d for exactly one probe", rejectsBefore, got)
	}

	// Byte conservation: every region readable bit-exact through the
	// forwarding clients and straight from the PFS.
	for _, c := range clients {
		got := make([]byte, appBytes)
		if n, err := c.Read(c.path, 0, got); err != nil || n != appBytes {
			t.Fatalf("read %s through client: n=%d err=%v", c.path, n, err)
		}
		for i := range got {
			if got[i] != pat(int64(i)) {
				t.Fatalf("%s byte %d corrupted: got %d want %d", c.path, i, got[i], pat(int64(i)))
			}
		}
		direct := make([]byte, appBytes)
		if n, err := st.Store.Read(c.path, 0, direct); err != nil || n != appBytes {
			t.Fatalf("read %s from store: n=%d err=%v", c.path, n, err)
		}
		for i := range direct {
			if direct[i] != pat(int64(i)) {
				t.Fatalf("%s byte %d lost on the PFS: got %d want %d", c.path, i, direct[i], pat(int64(i)))
			}
		}
	}

	// The blackout was observable: the journal recorded the transitions
	// and replayed them on recovery.
	if v := reg.Counter("journal_appends_total").Value(); v == 0 {
		t.Fatal("journal_appends_total = 0 on a journaled stack")
	}
	if v := reg.Counter("journal_replay_records_total").Value(); v == 0 {
		t.Fatal("journal_replay_records_total = 0 after two recoveries")
	}
	t.Logf("seed %d: max stall %v, journal appends %d, fence rejections %d",
		seed, time.Duration(maxStallNs.Load()),
		reg.Counter("journal_appends_total").Value(), fenceRejectionTotal(reg))
}

// clientUnderTest pairs a forwarding client with its file.
type clientUnderTest struct {
	*fwd.Client
	path string
}

// fenceRejectionTotal sums epoch_fence_rejections_total across nodes.
func fenceRejectionTotal(reg *telemetry.Registry) int64 {
	var total int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "epoch_fence_rejections_total") {
			total += v
		}
	}
	return total
}

// TestBlackoutMidDrainMidScaleRecovery is the recovery × drain × elastic
// interleaving: the control plane dies while an I/O node is draining AND
// while a provisioned node has not yet been admitted to the pool (the
// scaler's spawn landed, its AddION never reached the journal). Recovery
// must abort the drain (the node returns to the allocatable pool), roll
// the half-up node back (decommissioned, not leaked as an orphan daemon
// nothing will ever route to or drain), and leave the journal's drain
// ledger balanced.
func TestBlackoutMidDrainMidScaleRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Start(Config{
		IONs:       6,
		Scheduler:  "FIFO",
		ChunkSize:  4096,
		RPC:        chaosRPC(),
		JournalDir: dir,

		HealthInterval:      20 * time.Millisecond,
		HealthTimeout:       250 * time.Millisecond,
		HealthFailThreshold: 3,
		HealthRiseThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "d1")); err != nil {
		t.Fatal(err)
	}
	// Drain a node the job does not hold, so the drain can only be
	// resolved by whoever started it — who is about to die.
	victim := ""
	for _, addr := range st.Arbiter.Pool() {
		if !contains(st.Arbiter.Current()["d1"], addr) {
			victim = addr
			break
		}
	}
	if victim == "" {
		victim = st.Arbiter.Pool()[0]
	}
	if err := st.Arbiter.Transition(victim, nodestate.DrainStart); err != nil {
		t.Fatal(err)
	}
	// The half-up node: provisioned into the stack, never admitted to the
	// arbiter pool — exactly the window between a scaler's Provision and
	// its AddION.
	orphan, err := st.SpawnION()
	if err != nil {
		t.Fatal(err)
	}

	if err := st.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	if err := st.RecoverControlPlane(); err != nil {
		t.Fatalf("recover: %v", err)
	}

	if nodeIn(st.Arbiter, victim, nodestate.Draining) {
		t.Fatal("drain survived the blackout; recovery must abort it")
	}
	if !contains(st.Arbiter.Pool(), victim) {
		t.Fatalf("aborted drain lost the node: pool %v", st.Arbiter.Pool())
	}
	if contains(st.Arbiter.Pool(), orphan) {
		t.Fatalf("half-provisioned node %s admitted to the recovered pool", orphan)
	}
	// Rolled back, not leaked: the orphan daemon is decommissioned (no
	// longer serving), so nothing can route to an unmanaged node.
	if d := st.DaemonAt(orphan); d != nil {
		if _, err := rpc.Dial(orphan, 1).WithOptions(rpc.Options{CallTimeout: 200 * time.Millisecond}).Call(&rpc.Message{Op: rpc.OpPing}); err == nil {
			t.Fatalf("half-provisioned node %s still serving after rollback", orphan)
		}
	}
	// Drain ledger balance, read straight from the on-disk journal: every
	// DrainStart is paired with a DrainAbort or a RemoveION.
	_, recs, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	starts, ends := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case journal.KindDrainStart:
			starts++
		case journal.KindDrainAbort, journal.KindRemoveION:
			ends++
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("drain ledger unbalanced after blackout: %d starts, %d ends", starts, ends)
	}
}

// TestBlackoutRecoveredMarksClearWhenNodesHeal: the journal brings the
// arbiter's down and overloaded marks back after a control-plane restart,
// but the prober that once reported them died with the control plane. The
// new prober only reports edges, so it must start each marked node in the
// condition the arbiter holds it in — otherwise a node that healed during
// the blackout never produces the Rise or Cool that clears its mark, and
// its capacity is lost until it happens to fail and rise again.
func TestBlackoutRecoveredMarksClearWhenNodesHeal(t *testing.T) {
	st, err := Start(Config{
		IONs:       4,
		Scheduler:  "FIFO",
		JournalDir: t.TempDir(),

		HealthInterval:      10 * time.Millisecond,
		HealthTimeout:       250 * time.Millisecond,
		HealthFailThreshold: 2,
		HealthRiseThreshold: 2,
		OverloadQueueDepth:  1 << 20, // detection armed; an idle node never trips it
		OverloadRecovery:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const dead, hot = 1, 2
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s (arbiter down=%v overloaded=%v)", what,
					st.Arbiter.NodesIn(nodestate.Down), st.Arbiter.NodesIn(nodestate.Overloaded))
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One node dies and is marked down; another is journaled overloaded.
	st.Daemons[dead].Close()
	waitFor("the killed node is marked down", func() bool { return nodeIn(st.Arbiter, st.Addrs[dead], nodestate.Down) })
	if err := st.Arbiter.Transition(st.Addrs[hot], nodestate.Hot); err != nil {
		t.Fatal(err)
	}

	// Blackout. Both nodes heal while nobody is watching: the dead one
	// restarts, the hot one was idle all along.
	if err := st.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	if err := st.RestartION(dead); err != nil {
		t.Fatal(err)
	}
	if err := st.RecoverControlPlane(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !nodeIn(st.Arbiter, st.Addrs[dead], nodestate.Down) || !nodeIn(st.Arbiter, st.Addrs[hot], nodestate.Overloaded) {
		t.Fatalf("journaled marks lost in recovery: down=%v overloaded=%v",
			st.Arbiter.NodesIn(nodestate.Down), st.Arbiter.NodesIn(nodestate.Overloaded))
	}

	// The recovered prober earns the clearing edges the ordinary way.
	waitFor("the restarted node rises and the idle node cools", func() bool {
		return len(st.Arbiter.NodesIn(nodestate.Down|nodestate.Overloaded)) == 0
	})
	for _, i := range []int{dead, hot} {
		if hs, ok := st.Health.StateOf(st.Addrs[i]); !ok || hs != 0 {
			t.Errorf("prober has %s in %v (probed %v), want healthy", st.Addrs[i], hs, ok)
		}
	}
	if got := st.Telemetry.Gauge("arbiter_ions_live").Value(); got != 4 {
		t.Errorf("arbiter_ions_live = %d, want 4: capacity must come back", got)
	}
}

// TestBlackoutSeriesAbsentWithoutJournal pins the opt-in contract at the
// stack level: without JournalDir no journal_* or epoch_* series exists
// anywhere — the journal and the fencing machinery are fully dormant.
func TestBlackoutSeriesAbsentWithoutJournal(t *testing.T) {
	st := startStack(t, 2)
	if st.Journal != nil {
		t.Fatal("journal opened without JournalDir")
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "plain")); err != nil {
		t.Fatal(err)
	}
	c, err := st.NewClient("plain")
	if err != nil {
		t.Fatal(err)
	}
	if err := waitForSomeAllocation(c, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("/plain", 0, []byte("no journal")); err != nil {
		t.Fatal(err)
	}
	snap := st.Telemetry.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "journal_") || strings.HasPrefix(name, "epoch_") {
			t.Errorf("journal-off stack registered %s", name)
		}
	}
	if err := st.CrashControlPlane(); err == nil {
		t.Fatal("CrashControlPlane without a journal must refuse (nothing would survive)")
	}
	if err := st.RecoverControlPlane(); err == nil {
		t.Fatal("RecoverControlPlane without a journal must refuse")
	}
}
