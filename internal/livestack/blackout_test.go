package livestack

// Blackout tests at the stack level: recovery in the middle of a drain and
// a scale-up, journaled marks that must clear once their nodes heal, and
// the journal's opt-in contract. The blackout acceptance scenario is
// internal/scenario's TestBlackoutWritesSurviveControlPlaneCrash.

import (
	"bytes"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fwd"
	"repro/internal/journal"
	"repro/internal/nodestate"
	"repro/internal/pfs"
	"repro/internal/testkit"
)

// TestBlackoutMidDrainMidScaleRecovery is the recovery × drain × elastic
// interleaving: the control plane dies while an I/O node is draining AND
// while a provisioned node has not risen yet (the scaler's tick spawned it
// and added it to the pool, down, and no sweep has probed it since).
// Recovery must abort the drain (the node returns to the allocatable
// pool) and leave the journal's drain ledger balanced; the provisioned
// node is recovered as the down member the journal holds, rises under the
// recovered control plane, and carries traffic.
func TestBlackoutMidDrainMidScaleRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Start(Config{
		IONs:       3,
		Scheduler:  "FIFO",
		ChunkSize:  4096,
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
		t.Fatalf("IOR-MPI holds the whole pool %v", st.Arbiter.Pool())
	}
	if err := st.Arbiter.Transition(victim, nodestate.DrainStart); err != nil {
		t.Fatal(err)
	}
	// The half-up node, as a scaler tick leaves it: spawned and a down
	// pool member. The loop stops first, so no sweep can raise it before
	// the crash.
	st.StopControlPlane()
	spawned, err := st.SpawnION()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Arbiter.AddION(spawned); err != nil {
		t.Fatal(err)
	}
	if !nodeIn(st.Arbiter, spawned, nodestate.Down) {
		t.Fatalf("provisioned node %s joined the pool up", spawned)
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
	if !slices.Contains(st.Arbiter.Pool(), spawned) {
		t.Fatalf("provisioned node %s missing from the recovered pool %v", spawned, st.Arbiter.Pool())
	}
	// IOR-MPI takes 1, 2, 4 … nodes: the fourth node's rise lets it grow
	// onto the whole pool.
	testkit.Eventually(t, "the provisioned node to rise and join d1's allocation", func() bool {
		return slices.Contains(st.Bus.Current().For("d1"), spawned)
	})
	c, err := st.NewClient("d1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/grown"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("/grown", 0, bytes.Repeat([]byte("g"), 64*4096)); err != nil {
		t.Fatal(err)
	}
	if s := st.DaemonAt(spawned).Stats(); s.Writes == 0 {
		t.Fatalf("provisioned node served no writes: %+v", s)
	}

	// The journal on disk: the node joined (AddION) before the crash and
	// rose after the recovery's publish; the drain ledger balances —
	// every DrainStart is paired with a DrainAbort or a RemoveION.
	_, recs, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	var history []journal.Kind
	starts, ends := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case journal.KindDrainStart:
			starts++
		case journal.KindDrainAbort, journal.KindRemoveION:
			ends++
		}
		if r.Addr == spawned || r.Kind == journal.KindPublish && len(history) > 0 {
			history = append(history, r.Kind)
		}
	}
	want := []journal.Kind{journal.KindAddION, journal.KindPublish, journal.NodeEvent(spawned, nodestate.Rise).Kind}
	if len(history) < len(want) || !slices.Equal(history[:len(want)], want) {
		t.Fatalf("the provisioned node's journal history is %v, want it to start %v", history, want)
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("drain ledger unbalanced after blackout: %d starts, %d ends", starts, ends)
	}
}

// TestBlackoutRecoveredMarksClearWhenNodesHeal: the journal brings the
// arbiter's down and overloaded marks back after a control-plane restart,
// but the prober that once reported them died with the control plane. The
// new prober judges against the conditions the recovered arbiter holds, so
// a node that healed during the blackout produces the Rise or Cool that
// clears its mark — otherwise its capacity would be lost until it happened
// to fail and rise again.
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
	if got := st.Telemetry.Gauge("arbiter_ions_live").Value(); got != 4 {
		t.Errorf("arbiter_ions_live = %d, want 4: capacity must come back", got)
	}
}

// TestBlackoutSeriesAbsentWithoutJournal pins the journal's opt-in
// contract at the stack level: without JournalDir no journal_* series
// exists anywhere and the control plane refuses to crash. Fencing is not
// the journal's: its epoch_* series are there, at zero on a quiet stack.
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
	allocated(t, c, 0)
	if err := c.Create("/plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("/plain", 0, []byte("no journal")); err != nil {
		t.Fatal(err)
	}
	snap := st.Telemetry.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "journal_") {
			t.Errorf("journal-off stack registered %s", name)
		}
	}
	for _, name := range []string{
		`epoch_fence_rejections_total{node="ion00"}`, `epoch_fence_rejections_total{node="ion01"}`,
		`epoch_stale_retries_total{app="plain"}`,
	} {
		if v, ok := snap.Counters[name]; !ok || v != 0 {
			t.Errorf("%s = %d (registered=%v), want registered and 0", name, v, ok)
		}
	}
	if err := st.CrashControlPlane(); err == nil {
		t.Fatal("CrashControlPlane without a journal must refuse (nothing would survive)")
	}
	if err := st.RecoverControlPlane(); err == nil {
		t.Fatal("RecoverControlPlane without a journal must refuse")
	}
}

// fenceRig is a journal-less stack with one app, "plain", allocated and
// its client attached, counting the writes that take the client's direct
// PFS path. A function set with beforeReply runs once, on the daemon's
// side, before the next reply any daemon sends.
type fenceRig struct {
	st     *Stack
	c      *fwd.Client
	direct atomic.Int64
	hook   atomic.Pointer[func()]
}

// beforeReply arms f to run before the next reply a daemon writes.
func (r *fenceRig) beforeReply(f func()) { r.hook.Store(&f) }

// hookListener hands out conns that run the rig's armed hook before a
// reply leaves.
type hookListener struct {
	net.Listener
	r *fenceRig
}

func (l hookListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return hookConn{c, l.r}, nil
}

type hookConn struct {
	net.Conn
	r *fenceRig
}

func (c hookConn) Write(p []byte) (int, error) {
	if f := c.r.hook.Swap(nil); f != nil {
		(*f)()
	}
	return c.Conn.Write(p)
}

func newFenceRig(t *testing.T) *fenceRig {
	t.Helper()
	r := &fenceRig{}
	st, err := Start(Config{
		IONs:         2,
		WrapDirect:   func(fs pfs.FileSystem) pfs.FileSystem { return &countingFS{FileSystem: fs, writes: &r.direct} },
		WrapListener: func(_ int, ln net.Listener) net.Listener { return hookListener{ln, r} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "plain")); err != nil {
		t.Fatal(err)
	}
	if r.c, err = st.NewClient("plain"); err != nil {
		t.Fatal(err)
	}
	allocated(t, r.c, 0)
	r.st = st
	return r
}

// fence raises every daemon's floor to f.
func (r *fenceRig) fence(f uint64) {
	for _, d := range r.st.Daemons {
		d.SetFence(f)
	}
}

// sum adds up a per-node counter over the daemons.
func (r *fenceRig) sum(series string) (n int64) {
	for name, v := range r.st.Telemetry.Snapshot().Counters {
		if strings.HasPrefix(name, series+"{") {
			n += v
		}
	}
	return n
}

// applied counts the writes the daemons admitted to their backends.
func (r *fenceRig) applied() int64 { return r.sum("ion_writes_total") }

// rejections counts the writes the daemons fenced.
func (r *fenceRig) rejections() int64 { return r.sum("epoch_fence_rejections_total") }

// TestFenceWithoutJournal: fencing needs no journal. On a stack without
// JournalDir a write the published map routed carries the map's version —
// a fence at that version lets it through, one above it refuses it — and
// the refused write never reaches the daemon's backend: with no fresher
// map to chase, it lands once on the direct PFS path.
func TestFenceWithoutJournal(t *testing.T) {
	r := newFenceRig(t)
	version := r.st.Bus.Version()
	r.fence(version)
	if _, err := r.c.Write("/fenced", 0, []byte("at the fence")); err != nil {
		t.Fatal(err)
	}
	if n := r.applied(); n != 1 {
		t.Fatalf("a write stamped at the fence reached the backend %d times, want once", n)
	}

	r.fence(version + 1)
	data := []byte("above the stamp")
	if k, err := r.c.Write("/fenced", 64, data); err != nil || k != len(data) {
		t.Fatalf("fenced write: %d, %v", k, err)
	}
	if n := r.applied(); n != 1 {
		t.Fatalf("the backend saw %d writes, want 1: the fenced one must be refused before it", n)
	}
	if n := r.rejections(); n != 1 {
		t.Fatalf("epoch_fence_rejections_total = %d, want 1", n)
	}
	if n := r.direct.Load(); n != 1 {
		t.Fatalf("the direct path saw %d writes, want the fenced one once", n)
	}
	buf := make([]byte, len(data))
	if _, err := r.st.Store.Read("/fenced", 64, buf); err != nil || string(buf) != string(data) {
		t.Fatalf("PFS holds %q (%v), want %q", buf, err, data)
	}
	if v := r.st.Bus.Version(); v != version {
		t.Fatalf("map version moved %d → %d: the write must have found no fresher map", version, v)
	}
}

// TestFencedWriteChasesTheRevokingPublish: on a stack without JournalDir,
// a write in flight when its epoch is revoked lands once through the I/O
// nodes. The daemons are fenced first, as the stack's follower fences them
// inside a revoking publish; the daemon that refuses the write runs that
// publish before its reply leaves, so the map reaches the client before
// the rejection does, and the write is routed again under the new epoch.
func TestFencedWriteChasesTheRevokingPublish(t *testing.T) {
	r := newFenceRig(t)
	next := r.st.Bus.Version() + 1
	r.st.Bus.Revoke(next)
	r.fence(next)
	r.beforeReply(func() { r.st.Bus.Publish(r.st.Bus.Current().IONs) })
	data := []byte("in flight across the fence")
	if _, err := r.c.Write("/chase", 0, data); err != nil {
		t.Fatal(err)
	}
	if m := r.st.Bus.Current(); m.Version != next || m.Fence != next {
		t.Fatalf("published version %d fence %d, want both %d", m.Version, m.Fence, next)
	}
	if n := r.rejections(); n != 1 {
		t.Fatalf("epoch_fence_rejections_total = %d, want the in-flight write fenced once", n)
	}
	if a, d := r.applied(), r.direct.Load(); a != 1 || d != 0 {
		t.Fatalf("%d backend writes, %d direct; want the write once through an I/O node", a, d)
	}
	if n := r.st.Telemetry.Counter(`epoch_stale_retries_total{app="plain"}`).Value(); n != 1 {
		t.Fatalf("epoch_stale_retries_total = %d, want 1", n)
	}
	buf := make([]byte, len(data))
	if _, err := r.st.Store.Read("/chase", 0, buf); err != nil || string(buf) != string(data) {
		t.Fatalf("PFS holds %q (%v), want %q", buf, err, data)
	}
}

// TestFencedWritesRacingRevokingPublishesLandOnce: writers keep writing
// while revoking publishes follow one another. A write fenced in flight
// either finds the fresher view already on its client and is routed
// again, or the PFS takes it at once; either way every write lands
// exactly once — through a daemon's backend or the direct path, never
// both — and its bytes read back.
func TestFencedWritesRacingRevokingPublishesLandOnce(t *testing.T) {
	r := newFenceRig(t)
	const writers, size, most = 4, 64, 1 << 12
	pattern := func(off int64, buf []byte) {
		for i := range buf {
			buf[i] = byte(off>>6) ^ byte(i)
		}
	}
	region := func(w, i int) int64 { return int64(w*most+i) * size }
	stop := make(chan struct{})
	wrote := make([]int, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < most; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pattern(region(w, i), buf)
				if _, err := r.c.Write("/race", region(w, i), buf); err != nil {
					t.Errorf("writer %d, write %d: %v", w, i, err)
					return
				}
				wrote[w]++
			}
		}()
	}
	publishes := 0
	for ; r.rejections() < 20 && publishes < 5000; publishes++ {
		r.st.Bus.Revoke(r.st.Bus.Version() + 1)
		r.st.Bus.Publish(r.st.Bus.Current().IONs)
	}
	close(stop)
	wg.Wait()
	total := 0
	for _, n := range wrote {
		total += n
	}
	fenced, direct := r.rejections(), r.direct.Load()
	t.Logf("%d writes, %d revoking publishes, %d fenced, %d of them on the direct path", total, publishes, fenced, direct)
	if fenced == 0 {
		t.Fatalf("no write was fenced in %d revoking publishes", publishes)
	}
	if applied := r.applied(); applied+direct != int64(total) {
		t.Fatalf("%d backend writes + %d direct for %d writes: each must land exactly once", applied, direct, total)
	}
	if n := r.st.Telemetry.Counter(`epoch_stale_retries_total{app="plain"}`).Value(); n != fenced {
		t.Fatalf("epoch_stale_retries_total = %d, want one per fenced write (%d)", n, fenced)
	}
	got, want := make([]byte, size), make([]byte, size)
	for w, n := range wrote {
		for i := range n {
			pattern(region(w, i), want)
			if _, err := r.st.Store.Read("/race", region(w, i), got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("writer %d, write %d: PFS holds %x (%v), want %x", w, i, got, err, want)
			}
		}
	}
}

// countingFS counts the writes that take a client's direct PFS path.
type countingFS struct {
	pfs.FileSystem
	writes *atomic.Int64
}

func (f *countingFS) Write(path string, off int64, p []byte) (int, error) {
	f.writes.Add(1)
	return f.FileSystem.Write(path, off, p)
}
