package livestack

// Blackout tests at the stack level: recovery in the middle of a drain and
// a scale-up, journaled marks that must clear once their nodes heal, and
// the journal's opt-in contract. The blackout acceptance scenario is
// internal/scenario's TestBlackoutWritesSurviveControlPlaneCrash.

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/nodestate"
	"repro/internal/rpc"
)

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
		if !slices.Contains(st.Arbiter.Current()["d1"], addr) {
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
	if !slices.Contains(st.Arbiter.Pool(), victim) {
		t.Fatalf("aborted drain lost the node: pool %v", st.Arbiter.Pool())
	}
	if slices.Contains(st.Arbiter.Pool(), orphan) {
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
	if err := WaitForAllocation(c, 0, 2*time.Second); err != nil {
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
