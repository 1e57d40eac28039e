package livestack

// Map delivery: a stack registers one follower on its bus, which inside
// every Publish raises every daemon's fence to the map's and then applies
// the map to every client the stack made, in creation order. So when a
// decision returns, every client already routes on it.

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fwd"
	"repro/internal/mapping"
	"repro/internal/perfmodel"
	"repro/internal/policy"
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

// checkFollowers requires every follower to be on the bus's current map
// now, without waiting, and to have counted each publication since it
// joined once, plus the map it started on.
func checkFollowers(t *testing.T, st *Stack, fs []follower) {
	t.Helper()
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

// churn returns a seeded job churn over slots applications "slot0"… on
// st's arbiter: toggle(s) starts or finishes slot s's job, decide toggles
// a random slot, and idle finishes every running job.
func churn(t *testing.T, st *Stack, slots int) (toggle func(int), decide, idle func()) {
	specs := perfmodel.EvaluationApps()
	rng := rand.New(rand.NewPCG(1, 2))
	running := make([]bool, slots)
	toggle = func(s int) {
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
	decide = func() { toggle(rng.IntN(slots)) }
	idle = func() {
		for s := range running {
			if running[s] {
				toggle(s)
			}
		}
	}
	return toggle, decide, idle
}

func slot(i int) string { return fmt.Sprintf("slot%d", i) }

// TestEveryClientAppliesEveryMapOnce: under seeded job churn every client
// the stack made is on the bus's map when JobStarted or JobFinished
// returns, having applied each map published after it joined exactly
// once, plus the one it started on. Eight clients join before the first
// decision, a ninth joins mid-churn, four join while decisions are being
// published (run it under -race), and one is held at registration while a
// decision that changes its allocation goes out: it must come back
// routing on that decision. Each client has an application of its own
// (the remap counter is per application), and the churn toggles the jobs
// of all fourteen, joined or not.
func TestEveryClientAppliesEveryMapOnce(t *testing.T) {
	st := startStack(t, 6)
	const slots = 14
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
	toggle, decide, idle := churn(t, st, slots)

	for i := 0; i < 20; i++ {
		decide()
		checkFollowers(t, st, fs)
	}
	join(slot(8))
	for i := 0; i < 20; i++ {
		decide()
		checkFollowers(t, st, fs)
	}

	// Four clients join while decisions go out.
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
		checkFollowers(t, st, settled)
	}
	for f := range racers {
		fs = append(fs, f)
	}
	checkFollowers(t, st, fs)

	// Hold registration (the stack lock) while the decision that starts
	// the last application's job on an idle pool goes out: NewClient must
	// register before it reads the bus's current map, or it routes on the
	// map before that decision.
	idle()
	checkFollowers(t, st, fs)
	const last = slots - 1
	var held *fwd.Client
	var wg sync.WaitGroup
	func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if held, err = st.NewClient(slot(last)); err != nil {
				t.Error(err)
			}
		}()
		time.Sleep(20 * time.Millisecond) // let it reach the lock
		toggle(last)
		checkFollowers(t, st, fs)
	}()
	wg.Wait()
	if held == nil {
		t.FailNow()
	}
	want := st.Bus.Current()
	if have := held.IONs(); len(have) == 0 || !slices.Equal(have, want.For(slot(last))) {
		t.Fatalf("a client held at registration during v%d returned on %v, v%d assigns %s %v",
			want.Version, have, want.Version, slot(last), want.For(slot(last)))
	}
	fs = append(fs, follower{c: held, app: slot(last), joinLo: want.Version, joinHi: want.Version})
	for i := 0; i < 20; i++ {
		decide()
		checkFollowers(t, st, fs)
	}
}

// TestMapDeliveryGoroutinePin: a stack runs no delivery goroutine — with
// 64 clients it runs no more goroutines than with 0 or 1, none of them
// started by startDelivery — and a decision still reaches all 64 before
// JobStarted returns.
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
	none := goroutines()
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
	if many := goroutines(); many > none || one > none {
		t.Fatalf("0, 1 and 64 clients run %d, %d and %d goroutines: delivery runs per client", none, one, many)
	}
	buf := make([]byte, 1<<20)
	if n := runtime.Stack(buf, true); strings.Contains(string(buf[:n]), ".(*Stack).startDelivery") {
		t.Fatalf("a goroutine runs map delivery:\n%s", buf[:n])
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "app63")); err != nil {
		t.Fatal(err)
	}
	checkFollowers(t, st, fs)
}

// daemonsFenced requires every daemon the stack started to hold at least
// fence.
func daemonsFenced(t *testing.T, st *Stack, fence uint64, when string) {
	t.Helper()
	for _, d := range st.daemons() {
		if got := d.Fence(); got < fence {
			t.Fatalf("%s a daemon's fence is %d, the map's %d", when, got, fence)
		}
	}
}

// TestFenceReachesEveryDaemonBeforeAnyClient: when the decision that
// publishes a fenced map returns, every daemon already holds the fence and
// the client routes on the map; the follower keeps delivering through a
// control-plane crash and recovery, and the recovery map reaches a
// follower registered after the stack's only once every daemon holds its
// fence — the stack's follower fenced them first, inside the publish.
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
	allocated(t, c, 0)
	daemonsFenced(t, st, fence, "once a client routes on the fenced map")
	checkFollowers(t, st, fs)

	if err := st.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	var unfenced []string // written inside Publish, read once unfollowed
	unfollow := st.Bus.Follow(func(m mapping.Map) {
		for _, d := range st.daemons() {
			if got := d.Fence(); got < m.Fence {
				unfenced = append(unfenced, fmt.Sprintf("map %d reached a later follower with a daemon's fence at %d, the map's %d", m.Version, got, m.Fence))
			}
		}
	})
	err = st.RecoverControlPlane()
	unfollow()
	if err != nil {
		t.Fatal(err)
	}
	if unfenced != nil {
		t.Fatal(strings.Join(unfenced, "\n"))
	}
	final := st.Bus.Current()
	if have := c.IONs(); !slices.Equal(have, final.For("f1")) {
		t.Fatalf("the client holds %v, not the recovery map's %v", have, final.For("f1"))
	}
	daemonsFenced(t, st, final.Fence, "after recovery")
}

// TestFencedDeliveryRacesJoinsAndDecommissions: after a recovery every map
// carries a fence, so the bus's follower takes the stack lock (fenceAll)
// inside Publish, under the arbiter's and the bus's locks. Decisions that
// each raise the fence race NewClient and DecommissionION, which take the
// stack lock and the clients' locks but never the arbiter's or the bus's
// while holding them. Everything must finish (run it under -race); when
// each deciding call returns every daemon holds its fence and every
// client that joined before it routes on its map.
func TestFencedDeliveryRacesJoinsAndDecommissions(t *testing.T) {
	st, err := Start(Config{IONs: 8, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	const slots = 8
	var fs []follower
	for i := 0; i < slots; i++ {
		c, err := st.NewClient(slot(i))
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, follower{c: c, app: slot(i)})
	}
	if err := st.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	if err := st.RecoverControlPlane(); err != nil {
		t.Fatal(err)
	}
	if st.Bus.Current().Fence == 0 {
		t.Fatal("the recovery map carries no fence")
	}
	_, decide, _ := churn(t, st, slots)

	var wg sync.WaitGroup
	joined := make(chan follower, 16)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(joined)
		for i := 0; i < cap(joined); i++ {
			app := fmt.Sprintf("late%d", i)
			lo := st.Bus.Version()
			c, err := st.NewClient(app)
			if err != nil {
				t.Error(err)
				return
			}
			joined <- follower{c: c, app: app, joinLo: lo, joinHi: st.Bus.Version()}
		}
	}()
	go func() {
		defer wg.Done()
		for _, addr := range st.IONAddrs()[4:] {
			if err := st.DecommissionION(addr); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		fence := st.Bus.Version() + 1
		st.Bus.Revoke(fence)
		decide()
		daemonsFenced(t, st, fence, fmt.Sprintf("when decision %d returned", i))
		checkFollowers(t, st, fs)
	}
	wg.Wait()
	for f := range joined {
		fs = append(fs, f)
	}
	checkFollowers(t, st, fs)
}

// TestFollowerDropsClosedClients: a closed client leaves the delivery list
// at the first decision after its Close, so every Publish walks only the
// clients still open. Sixteen clients, twelve of them closed, then one
// decision: the follower keeps the four open ones, in creation order, and
// they are on its map.
func TestFollowerDropsClosedClients(t *testing.T) {
	st := startStack(t, 4)
	var open []*fwd.Client
	for i := 0; i < 16; i++ {
		c, err := st.NewClient(slot(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			open = append(open, c)
		} else {
			c.Close()
		}
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", slot(3))); err != nil {
		t.Fatal(err)
	}
	if walked := st.followers(); !slices.Equal(walked, open) {
		t.Fatalf("the follower walks %d clients after the decision, want the %d open ones", len(walked), len(open))
	}
	if have, want := open[0].IONs(), st.Bus.Current().For(slot(3)); len(have) == 0 || !slices.Equal(have, want) {
		t.Fatalf("an open client routes on %v, the decision assigns %v", have, want)
	}
}
