package livestack

// Map delivery: a stack subscribes to its bus once and one goroutine
// applies every published map to every client it made, in creation order,
// after raising every daemon's fence to the map's.

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fwd"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/testkit"
)

// follower is a client and what it must have counted: the version the
// bus was at when it joined (exact for the clients that joined between
// publications) or the versions it may have joined at (those that joined
// while a decision was being published).
type follower struct {
	c              *fwd.Client
	app            string
	joinLo, joinHi uint64
}

// waitApplied waits until every follower has applied the bus's current
// version.
func waitApplied(t *testing.T, st *Stack, fs []follower) {
	t.Helper()
	v := st.Bus.Version()
	for _, f := range fs {
		testkit.Eventually(t, fmt.Sprintf("the clients to apply v%d (%s joined at v%d)", v, f.app, f.joinHi), func() bool {
			return f.c.Stats().RemapsApplied >= int64(1+v-f.joinHi)
		})
	}
}

// checkFollowers requires every follower to be on the bus's current map
// and to have counted each publication since it joined once, plus the map
// it started on.
func checkFollowers(t *testing.T, st *Stack, fs []follower) {
	t.Helper()
	waitApplied(t, st, fs)
	final := st.Bus.Current()
	for i, f := range fs {
		if have, want := f.c.IONs(), final.For(f.app); !slices.Equal(have, want) {
			t.Errorf("client %d (%s) on %v, bus v%d says %v", i, f.app, have, final.Version, want)
		}
		got, lo, hi := f.c.Stats().RemapsApplied, int64(1+final.Version-f.joinHi), int64(1+final.Version-f.joinLo)
		if got < lo || got > hi {
			t.Errorf("client %d (%s) joined at v%d..v%d and applied %d maps by v%d, want %d..%d",
				i, f.app, f.joinLo, f.joinHi, got, final.Version, lo, hi)
		}
	}
}

// TestEveryClientAppliesEveryMapOnce: under seeded job churn every client
// the stack made ends on the bus's final map, having applied each map
// published after it joined exactly once, plus the one it started on.
// Eight clients join before the first decision (the subscription's initial
// v0 must not reach them a second time), a ninth joins mid-churn, four
// join while decisions are being published (run it under -race), and one
// is held at registration while a decision that changes its allocation
// goes out: it must come back routing on that decision. Each client has
// an application of its own (the remap counter is per application), and
// the churn toggles the jobs of all fourteen, joined or not.
func TestEveryClientAppliesEveryMapOnce(t *testing.T) {
	// With one P the delivery goroutine Start launches cannot run before
	// the eight clients have registered, so a queued initial map would
	// reach them — the double count this test exists to catch.
	prev := runtime.GOMAXPROCS(1)
	restore := sync.OnceFunc(func() { runtime.GOMAXPROCS(prev) })
	defer restore()
	st, err := Start(Config{IONs: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	const slots = 14
	slot := func(i int) string { return fmt.Sprintf("slot%d", i) }
	var fs []follower
	join := func(app string) {
		t.Helper()
		v := st.Bus.Version()
		c, err := st.NewClient(app)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, follower{c: c, app: app, joinLo: v, joinHi: v})
	}
	for i := 0; i < 8; i++ {
		join(slot(i))
	}
	restore()

	specs := perfmodel.EvaluationApps()
	rng := rand.New(rand.NewPCG(1, 2))
	var running [slots]bool
	toggle := func(s int) {
		t.Helper()
		var err error
		if running[s] {
			err = st.Arbiter.JobFinished(slot(s))
		} else {
			_, err = st.Arbiter.JobStarted(policy.FromAppSpec(slot(s), specs[rng.IntN(len(specs))]))
		}
		if err != nil {
			t.Fatal(err)
		}
		running[s] = !running[s]
	}
	decide := func() { toggle(rng.IntN(slots)) }

	for i := 0; i < 20; i++ {
		decide()
		checkFollowers(t, st, fs)
	}
	join(slot(8))
	for i := 0; i < 20; i++ {
		decide()
		checkFollowers(t, st, fs)
	}

	// Four clients join while decisions go out; each decision waits for
	// the clients that joined before it, so the bus never drops a map.
	racers := make(chan follower, 4)
	go func() {
		defer close(racers)
		for i := 0; i < cap(racers); i++ {
			app := slot(9 + i)
			lo := st.Bus.Version()
			c, err := st.NewClient(app)
			if err != nil {
				t.Error(err)
				return
			}
			racers <- follower{c: c, app: app, joinLo: lo, joinHi: st.Bus.Version()}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	settled := fs
	for i := 0; i < 40; i++ {
		decide()
		waitApplied(t, st, settled)
	}
	for f := range racers {
		fs = append(fs, f)
	}
	checkFollowers(t, st, fs)

	// Hold registration (the stack lock) while the decision that starts
	// the last application's job on an idle pool goes out: NewClient must
	// register before it reads the bus's current map, or it routes on the
	// map before that decision.
	for s := range running {
		if running[s] {
			toggle(s)
			waitApplied(t, st, fs)
		}
	}
	const idle = slots - 1
	var held *fwd.Client
	var wg sync.WaitGroup
	func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if held, err = st.NewClient(slot(idle)); err != nil {
				t.Error(err)
			}
		}()
		time.Sleep(20 * time.Millisecond) // let it reach the lock
		toggle(idle)
		waitApplied(t, st, fs)
	}()
	wg.Wait()
	if held == nil {
		t.FailNow()
	}
	want := st.Bus.Current()
	if have := held.IONs(); len(have) == 0 || !slices.Equal(have, want.For(slot(idle))) {
		t.Fatalf("a client held at registration during v%d returned on %v, v%d assigns %s %v",
			want.Version, have, want.Version, slot(idle), want.For(slot(idle)))
	}
	fs = append(fs, follower{c: held, app: slot(idle), joinLo: want.Version, joinHi: want.Version})
	for i := 0; i < 20; i++ {
		decide()
		waitApplied(t, st, fs)
	}
	checkFollowers(t, st, fs)
}

// TestMapDeliveryGoroutinePin: a stack runs one delivery goroutine however
// many clients follow it — with 64 clients it runs no more goroutines than
// with 1, and the one loop still carries a decision to all of them.
func TestMapDeliveryGoroutinePin(t *testing.T) {
	st := startStack(t, 2)
	// The fewest goroutines over a few looks, so one that a timer or an
	// earlier test's teardown runs for a moment is not counted.
	goroutines := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			time.Sleep(time.Millisecond)
			n = min(n, runtime.NumGoroutine())
		}
		return n
	}
	var fs []follower
	one := 0
	for i := 0; i < 64; i++ {
		app := fmt.Sprintf("app%d", i)
		c, err := st.NewClient(app)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, follower{c: c, app: app})
		if i == 0 {
			one = goroutines()
		}
	}
	if many := goroutines(); many > one {
		t.Fatalf("64 clients run %d goroutines, 1 client ran %d: delivery is not one loop", many, one)
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "app63")); err != nil {
		t.Fatal(err)
	}
	checkFollowers(t, st, fs)
}

// TestFenceReachesEveryDaemonBeforeAnyClient: once a client routes on a
// fenced map every daemon already holds the fence (the delivery loop fences
// before it applies), and the loop keeps delivering through a
// control-plane crash and recovery.
func TestFenceReachesEveryDaemonBeforeAnyClient(t *testing.T) {
	st, err := Start(Config{IONs: 3, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	c, err := st.NewClient("f1")
	if err != nil {
		t.Fatal(err)
	}
	fs := []follower{{c: c, app: "f1"}}
	fence := st.Bus.Version() + 1
	st.Bus.Revoke(fence)
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "f1")); err != nil {
		t.Fatal(err)
	}
	if err := WaitForAllocation(c, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, d := range st.daemons() {
		if got := d.Fence(); got < fence {
			t.Fatalf("a client routes on the fence-%d map while a daemon's fence is %d", fence, got)
		}
	}
	checkFollowers(t, st, fs)

	if err := st.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	if err := st.RecoverControlPlane(); err != nil {
		t.Fatal(err)
	}
	final := st.Bus.Current()
	if have, ok := c.AwaitIONs(2*time.Second, func(ions []string) bool { return slices.Equal(ions, final.For("f1")) }); !ok {
		t.Fatalf("the client holds %v, not the recovery map's %v", have, final.For("f1"))
	}
	for _, d := range st.daemons() {
		if got := d.Fence(); got < final.Fence {
			t.Fatalf("after recovery a daemon's fence is %d, the bus's %d", got, final.Fence)
		}
	}
}

// TestWaitForAllocationHoldsWhenNewClientReturns: NewClient returns a
// client already routing on the current map, so a zero-timeout wait for
// the allocation the arbiter made before the client existed succeeds.
func TestWaitForAllocationHoldsWhenNewClientReturns(t *testing.T) {
	st := startStack(t, 4)
	got, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "w1"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitForAllocation(c, len(got), 0); err != nil {
		t.Fatal(err)
	}
}
