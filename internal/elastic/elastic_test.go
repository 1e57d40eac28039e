package elastic

// Deterministic scaler tests: every case drives Tick by hand over fake
// pool/provisioner/health seams. The scaler counts ticks and reads no
// clock, so hysteresis windows, cooldowns, deadlines, the provisioning
// backoff and both lifecycles are pinned tick by tick.

import (
	"errors"
	"fmt"
	"go/build"
	"slices"
	"strings"
	"testing"

	"repro/internal/nodestate"
	"repro/internal/telemetry"
)

// fakePool is the arbiter: its members and their conditions, moved by
// nodestate's own transition function, and a record of the scaler's
// calls. rise and fail stand in for the prober's events.
type fakePool struct {
	st       map[string]nodestate.State
	assigned map[string]bool // RemoveION refused while set
	drainErr error
	adds     []string
	starts   []string // DrainStart, in order
	removes  []string
}

func newFakePool() *fakePool {
	return &fakePool{st: map[string]nodestate.State{}, assigned: map[string]bool{}}
}
func (p *fakePool) AddION(addr string) error {
	if _, dup := p.st[addr]; dup {
		return errors.New("duplicate")
	}
	p.st[addr] = nodestate.Down
	p.adds = append(p.adds, addr)
	return nil
}
func (p *fakePool) Transition(addr string, ev nodestate.Event) error {
	switch ev {
	case nodestate.DrainStart:
		if p.drainErr != nil {
			return p.drainErr
		}
		p.starts = append(p.starts, addr)
	case nodestate.DrainAbort:
	default:
		return fmt.Errorf("the scaler sent %v: only the drain events are its to send", ev)
	}
	return p.apply(addr, ev)
}
func (p *fakePool) RemoveION(addr string) error {
	if p.assigned[addr] {
		return errors.New("still assigned")
	}
	delete(p.st, addr)
	p.removes = append(p.removes, addr)
	return nil
}
func (p *fakePool) Pool() []string {
	out := make([]string, 0, len(p.st))
	for addr := range p.st {
		out = append(out, addr)
	}
	return out
}
func (p *fakePool) StateOf(addr string) (nodestate.State, bool) {
	st, ok := p.st[addr]
	return st, ok
}
func (p *fakePool) apply(addr string, ev nodestate.Event) (err error) {
	p.st[addr], _, err = p.st[addr].Apply(ev)
	return err
}
func (p *fakePool) rise(addr string) { p.apply(addr, nodestate.Rise) }
func (p *fakePool) fail(addr string) { p.apply(addr, nodestate.Fail) }

// draining is the set of members in a drain.
func (p *fakePool) draining() map[string]bool {
	out := map[string]bool{}
	for addr, st := range p.st {
		if st.Has(nodestate.Draining) {
			out[addr] = true
		}
	}
	return out
}

// fakeHealth is a hand-set load plane over the fake pool: Load reports
// the depth of every member the pool has up, less the stale ones.
type fakeHealth struct {
	pool  *fakePool
	depth map[string]int64
	stale map[string]bool // sample too old: Load omits the node
}

func (h *fakeHealth) Load() map[string]int64 {
	out := map[string]int64{}
	for addr, st := range h.pool.st {
		if !st.Has(nodestate.Down) && !h.stale[addr] {
			out[addr] = h.depth[addr]
		}
	}
	return out
}

// fakeProv hands out addresses ion10:1, ion11:1, … and can be told to
// fail the next N calls.
type fakeProv struct {
	next           int
	failNext       int
	provisioned    []string
	decommissioned []string
}

func (p *fakeProv) Provision() (string, error) {
	if p.failNext > 0 {
		p.failNext--
		return "", errors.New("provisioner outage")
	}
	addr := fmt.Sprintf("ion%d:1", 10+p.next)
	p.next++
	p.provisioned = append(p.provisioned, addr)
	return addr, nil
}
func (p *fakeProv) Decommission(addr string) error {
	p.decommissioned = append(p.decommissioned, addr)
	return nil
}

// rig bundles a scaler with its seams and two initial up members; the
// tests tick it by hand.
type rig struct {
	s      *Scaler
	pool   *fakePool
	prov   *fakeProv
	health *fakeHealth
	reg    *telemetry.Registry
}

func (r *rig) tick() { r.s.Tick() }

func (r *rig) counter(name string) int64 { return r.reg.Counter(name).Value() }

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	pool := newFakePool()
	prov := &fakeProv{}
	health := &fakeHealth{pool: pool, depth: map[string]int64{}, stale: map[string]bool{}}
	reg := telemetry.New()
	quiet := map[string]bool{}
	cfg := Config{
		Min:           2,
		Max:           6,
		UpWatermark:   8,
		DownWatermark: 1,
		UpSustain:     3,
		DownSustain:   4,
		UpCooldown:    10,
		DownCooldown:  20,
		MaxStep:       1,
		QuiesceSweeps: 2,
		Quiesced:      func(addr string) bool { return quiet[addr] },
		Telemetry:     reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	for _, a := range []string{"ion0:1", "ion1:1"} {
		pool.st[a] = 0
	}
	s, err := New(cfg, pool, prov, health)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{s: s, pool: pool, prov: prov, health: health, reg: reg}
}

// setDepth sets every up member's sampled depth.
func (r *rig) setDepth(d int64) {
	for addr, st := range r.pool.st {
		if !st.Has(nodestate.Down) {
			r.health.depth[addr] = d
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Min: 1, Max: 2, UpWatermark: 8, DownWatermark: 1, Quiesced: func(string) bool { return true }}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"min zero", func(c *Config) { c.Min = 0 }},
		{"max below min", func(c *Config) { c.Max = 0 }},
		{"no hysteresis band", func(c *Config) { c.DownWatermark = c.UpWatermark }},
		{"shrinkable without quiesce", func(c *Config) { c.Quiesced = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := New(cfg, newFakePool(), &fakeProv{}, &fakeHealth{}); err == nil {
				t.Fatal("want config error")
			}
		})
	}
	// Min == Max needs no Quiesced: the pool can never shrink.
	cfg := base
	cfg.Max = cfg.Min
	cfg.Quiesced = nil
	if _, err := New(cfg, newFakePool(), &fakeProv{}, &fakeHealth{}); err != nil {
		t.Fatalf("fixed-size config rejected: %v", err)
	}
}

func TestScaleUpNeedsSustainedSignalAndFirstRise(t *testing.T) {
	r := newRig(t, nil)
	r.setDepth(20) // far above the up watermark

	r.tick() // streak 1
	r.tick() // streak 2
	if len(r.prov.provisioned) != 0 {
		t.Fatalf("provisioned before UpSustain: %v", r.prov.provisioned)
	}
	r.tick() // streak 3 = UpSustain → provision
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("provisioned = %v, want one node", r.prov.provisioned)
	}
	newAddr := r.prov.provisioned[0]
	if !slices.Equal(r.pool.adds, []string{newAddr}) {
		t.Fatalf("arbiter adds = %v, want [%s] in the tick that provisioned it", r.pool.adds, newAddr)
	}
	if st, ok := r.pool.StateOf(newAddr); !ok || st != nodestate.Down {
		t.Fatalf("new node is %v in the pool (member %v), want a down member", st, ok)
	}
	r.tick()
	if r.counter("elastic_scale_ups_total") != 0 {
		t.Fatal("scale-up counted before the node rose")
	}

	// The daemon rises; the next tick settles it.
	r.pool.rise(newAddr)
	r.tick()
	if len(r.pool.adds) != 1 {
		t.Fatalf("arbiter adds = %v, want [%s]: a rise adds nothing", r.pool.adds, newAddr)
	}
	if r.counter("elastic_scale_ups_total") != 1 {
		t.Fatalf("elastic_scale_ups_total = %d, want 1", r.counter("elastic_scale_ups_total"))
	}
	if got := r.reg.Gauge("elastic_pool_size").Value(); got != 3 {
		t.Fatalf("elastic_pool_size = %d, want 3", got)
	}
}

// TestProvisionRollbacksInAddressOrder: provisions that miss their rise
// deadline in the same tick leave the pool and reach the provisioner in
// ascending address order, every time — the scaler walks its rise
// deadlines in a fixed order, so one seed journals one sequence of pools.
func TestProvisionRollbacksInAddressOrder(t *testing.T) {
	want := []string{"ion10:1", "ion11:1", "ion12:1", "ion13:1"}
	for rep := 0; rep < 20; rep++ {
		r := newRig(t, func(c *Config) { c.MaxStep = 4 })
		r.setDepth(20)
		for i := 0; i < 3; i++ { // UpSustain: four provisions at once
			r.tick()
		}
		if !slices.Equal(r.pool.adds, want) {
			t.Fatalf("repetition %d: arbiter adds = %v, want %v", rep, r.pool.adds, want)
		}
		for i := 0; i < riseTimeout; i++ { // none rises
			r.tick()
		}
		if !slices.Equal(r.pool.removes, want) || !slices.Equal(r.prov.decommissioned, want) {
			t.Fatalf("repetition %d: removes = %v, decommissioned = %v, want both %v",
				rep, r.pool.removes, r.prov.decommissioned, want)
		}
	}
}

func TestScaleUpCooldownGatesNextGrowth(t *testing.T) {
	r := newRig(t, nil)
	r.setDepth(20)
	r.tick()
	r.tick()
	r.tick() // provision #1 fires at tick 3; the 10-tick cooldown starts
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("provisioned = %v, want 1", r.prov.provisioned)
	}
	r.pool.rise(r.prov.provisioned[0])
	r.setDepth(20)
	// 5 more hot ticks: sustain is long since met, but the cooldown must
	// hold the second grow until tick 13.
	for i := 0; i < 5; i++ {
		r.tick()
		r.setDepth(20)
	}
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("cooldown violated: provisioned %v", r.prov.provisioned)
	}
	for i := 0; i < 6; i++ { // past tick 13
		r.tick()
		r.setDepth(20)
	}
	if len(r.prov.provisioned) != 2 {
		t.Fatalf("provisioned = %v, want 2 after cooldown", r.prov.provisioned)
	}
}

// TestFlipQuietDampsReversal pins the reversal gate: after a scale-up,
// the opposite direction is quiet for FlipQuiet (default max of the two
// cooldowns — 20 ticks in the rig), even once DownSustain is long since
// met.
// A grow is itself evidence of demand, and the remap stall it triggers
// briefly starves the depth signal, so an immediate shrink is a flap.
func TestFlipQuietDampsReversal(t *testing.T) {
	grow := func(r *rig) {
		r.setDepth(20)
		r.tick()
		r.tick()
		r.tick() // provision fires here: the flip clock starts
		if len(r.prov.provisioned) != 1 {
			t.Fatalf("provisioned = %v, want 1", r.prov.provisioned)
		}
		r.pool.rise(r.prov.provisioned[0])
		r.tick() // promote: pool 3, shrinkable above Min
		if r.counter("elastic_scale_ups_total") != 1 {
			t.Fatalf("ups = %d, want 1", r.counter("elastic_scale_ups_total"))
		}
		r.setDepth(0) // the signal collapses the instant the node lands
	}

	t.Run("gated", func(t *testing.T) {
		r := newRig(t, nil)
		grow(r)
		// Sustain (4 ticks) is met at tick 8; the flip gate holds until
		// 20 ticks after the provision decision at tick 3.
		for i := 0; i < 18; i++ { // up to tick 22
			r.tick()
		}
		if got := r.counter("elastic_drains_started_total"); got != 0 {
			t.Fatalf("drain started %d inside the flip-quiet window", got)
		}
		r.tick()
		r.tick() // past tick 23: the gate lifts, the held streak fires
		if got := r.counter("elastic_drains_started_total"); got != 1 {
			t.Fatalf("drains started = %d after flip-quiet, want 1", got)
		}
	})

	t.Run("one-tick quiet shrinks at sustain", func(t *testing.T) {
		r := newRig(t, func(c *Config) { c.FlipQuiet = 1 })
		grow(r)
		for i := 0; i < 4; i++ { // exactly DownSustain
			r.tick()
		}
		if got := r.counter("elastic_drains_started_total"); got != 1 {
			t.Fatalf("drains started = %d at sustain with no flip gate, want 1", got)
		}
	})
}

func TestHysteresisBandHoldsSteady(t *testing.T) {
	r := newRig(t, nil)
	r.setDepth(4) // between down (1) and up (8)
	for i := 0; i < 50; i++ {
		r.tick()
	}
	if len(r.prov.provisioned) != 0 || len(r.pool.draining()) != 0 || len(r.pool.removes) != 0 {
		t.Fatalf("band breached: prov=%v draining=%v removes=%v",
			r.prov.provisioned, r.pool.draining(), r.pool.removes)
	}
}

func TestMaxStepClampAndMaxBound(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.MaxStep = 4
		c.Max = 3 // only one above the initial two
	})
	r.setDepth(20)
	r.tick()
	r.tick()
	r.tick()
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("Max bound violated: provisioned %v", r.prov.provisioned)
	}
}

func TestScaleDownDrainsQuiescesAndDecommissions(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	quiet := map[string]bool{}
	r.s.cfg.Quiesced = func(addr string) bool { return quiet[addr] }
	r.health.depth["ion0:1"] = 0
	r.health.depth["ion1:1"] = 1

	for i := 0; i < 3; i++ {
		r.tick()
	}
	if len(r.pool.draining()) != 0 {
		t.Fatalf("drained before DownSustain: %v", r.pool.draining())
	}
	r.tick() // streak 4 = DownSustain → drain the least-loaded node
	if !r.pool.draining()["ion0:1"] {
		t.Fatalf("victim = %v, want the least-depth node ion0:1", r.pool.draining())
	}
	if r.counter("elastic_drains_started_total") != 1 {
		t.Fatal("drain not counted")
	}

	// Not quiet yet: the drain must wait.
	r.tick()
	if len(r.pool.removes) != 0 {
		t.Fatal("removed before quiescence")
	}
	// Quiet for QuiesceSweeps (2) consecutive ticks completes the drain.
	quiet["ion0:1"] = true
	r.tick()
	r.tick()
	if len(r.pool.removes) != 1 || r.pool.removes[0] != "ion0:1" {
		t.Fatalf("removes = %v, want [ion0:1]", r.pool.removes)
	}
	if len(r.prov.decommissioned) != 1 || r.prov.decommissioned[0] != "ion0:1" {
		t.Fatalf("decommissioned = %v, want [ion0:1]", r.prov.decommissioned)
	}
	if r.counter("elastic_scale_downs_total") != 1 {
		t.Fatal("scale-down not counted")
	}
	if got := r.reg.Gauge("elastic_pool_size").Value(); got != 1 {
		t.Fatalf("elastic_pool_size = %d, want 1", got)
	}
}

func TestMinFloorBlocksScaleDown(t *testing.T) {
	r := newRig(t, nil) // Min = 2 = initial size
	r.setDepth(0)
	for i := 0; i < 20; i++ {
		r.tick()
	}
	if len(r.pool.draining()) != 0 {
		t.Fatalf("pool shrank below Min: %v", r.pool.draining())
	}
}

// An in-flight provision must never cover for a drain: the rise can
// still roll back, and if it does, the drain it "covered" completes and
// the settled pool undershoots Min. Shrink is budgeted against members
// actually here and staying, growth stays optimistic.
func TestInFlightProvisionNeverCoversADrain(t *testing.T) {
	r := newRig(t, nil) // Min = 2 = initial size
	// Sustained demand starts one provision; the newcomer never rises.
	r.setDepth(10)
	for i := 0; i < 3; i++ {
		r.tick()
	}
	if got := len(r.prov.provisioned); got != 1 {
		t.Fatalf("provisions in flight = %d, want 1", got)
	}
	// The signal collapses while the rise is pending. The optimistic
	// size (members + provisioning = 3) is above Min, but only 2 nodes
	// are settled: no drain may start. Keep ticking through the rise
	// deadline so the rollback lands too.
	r.setDepth(0)
	for i := 0; i < 15; i++ {
		r.tick()
	}
	if got := r.counter("elastic_drains_started_total"); got != 0 {
		t.Fatalf("drains started = %d, want 0 (an in-flight provision covered a drain)", got)
	}
	if got := r.counter("elastic_provision_rollbacks_total"); got != 1 {
		t.Fatalf("rollbacks = %d, want 1 (the pending rise must time out)", got)
	}
	if got := len(r.pool.Pool()); got != 2 {
		t.Fatalf("members = %d, want 2: the pool left its floor", got)
	}
}

// TestScalerCountsForeignRemoval: a member that leaves the pool by any
// hand but the scaler's no longer counts toward the floor — the scaler
// reads the pool each tick, so an idle pool never drains below Min.
func TestScalerCountsForeignRemoval(t *testing.T) {
	r := newRig(t, nil) // Min = 2
	r.s.cfg.Quiesced = func(string) bool { return true }
	r.pool.st["ion2:1"] = 0
	if err := r.pool.RemoveION("ion0:1"); err != nil { // an operator retires a node
		t.Fatal(err)
	}
	r.setDepth(0)
	for tick := 1; tick <= 40; tick++ {
		r.tick()
		if got := r.pool.Pool(); len(got) < 2 {
			t.Fatalf("tick %d: pool %v is below Min 2", tick, got)
		}
	}
	if got := r.counter("elastic_drains_started_total"); got != 0 {
		t.Fatalf("drains started = %d, want 0: two settled members sit at the floor", got)
	}
}

// TestScalerCountsForeignAdd: a member that joins the pool by any hand
// but the scaler's counts toward the ceiling — a sustained burst never
// grows the pool past Max.
func TestScalerCountsForeignAdd(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Max = 3 })
	if err := r.pool.AddION("ion9:1"); err != nil { // an operator adds a node
		t.Fatal(err)
	}
	r.pool.rise("ion9:1")
	for tick := 1; tick <= 40; tick++ {
		for _, a := range r.prov.provisioned { // a provisioned daemon rises within one sweep
			if _, known := r.pool.st[a]; known {
				r.pool.rise(a)
			}
		}
		r.setDepth(20)
		r.tick()
		if got := r.pool.Pool(); len(got) > 3 {
			t.Fatalf("tick %d: pool %v is above Max 3", tick, got)
		}
	}
	if len(r.prov.provisioned) != 0 {
		t.Fatalf("provisioned %v into a pool already at Max", r.prov.provisioned)
	}
	if got := r.reg.Gauge("elastic_pool_size").Value(); got != 3 {
		t.Fatalf("elastic_pool_size = %d, want 3", got)
	}
}

func TestDrainAbortsWhenNodeDies(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.setDepth(0)
	for i := 0; i < 4; i++ {
		r.tick()
	}
	victim := ""
	for addr := range r.pool.draining() {
		victim = addr
	}
	if victim == "" {
		t.Fatal("no drain started")
	}
	// The nemesis kills the draining node — the prober's Fail ends the
	// drain in the pool — and the scaler must follow: the node must NOT
	// be decommissioned (warm restart may revive it), and it must stay a
	// member.
	r.pool.fail(victim)
	r.tick()
	if r.counter("elastic_drains_aborted_total") != 1 {
		t.Fatal("aborted drain not counted")
	}
	if len(r.prov.decommissioned) != 0 {
		t.Fatalf("dead draining node was decommissioned: %v", r.prov.decommissioned)
	}
	if !slices.Contains(r.pool.Pool(), victim) {
		t.Fatalf("aborted-drain node dropped from members: %v", r.pool.Pool())
	}
	if st := r.pool.st[victim]; st != nodestate.Down {
		t.Fatalf("dead drained node is %v in the pool, want down", st)
	}
}

// TestDrainEndedByThePoolIsAborted: a drain the pool no longer shows —
// aborted by another hand, or its node taken out of the pool — ends as an
// aborted drain, never decommissioned, so the ledger started = downs +
// aborted still balances.
func TestDrainEndedByThePoolIsAborted(t *testing.T) {
	for name, end := range map[string]func(p *fakePool, addr string){
		"foreign DrainAbort": func(p *fakePool, addr string) { p.apply(addr, nodestate.DrainAbort) },
		"foreign RemoveION":  func(p *fakePool, addr string) { delete(p.st, addr) },
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, func(c *Config) { c.Min = 1 })
			r.setDepth(0)
			for i := 0; i < 4; i++ { // DownSustain: DrainStart at tick 4
				r.tick()
			}
			if !slices.Equal(r.pool.starts, []string{"ion0:1"}) {
				t.Fatalf("drain starts = %v, want [ion0:1]", r.pool.starts)
			}
			end(r.pool, "ion0:1")
			r.tick()
			if got := r.counter("elastic_drains_aborted_total"); got != 1 {
				t.Fatalf("elastic_drains_aborted_total = %d, want 1", got)
			}
			if len(r.pool.removes) != 0 || len(r.prov.decommissioned) != 0 {
				t.Fatalf("removes = %v, decommissioned = %v, want none", r.pool.removes, r.prov.decommissioned)
			}
		})
	}
}

func TestDrainForcedPastDeadline(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.s.cfg.Quiesced = func(string) bool { return false } // never quiet
	r.setDepth(0)
	for i := 0; i < 4; i++ {
		r.tick()
	}
	if len(r.pool.draining()) != 1 {
		t.Fatalf("draining = %v, want 1", r.pool.draining())
	}
	// drainDeadline is 30 ticks: the drain started at tick 4 is forced at
	// tick 34.
	for i := 0; i < 31; i++ {
		r.tick()
	}
	if r.counter("elastic_drains_forced_total") != 1 {
		t.Fatalf("elastic_drains_forced_total = %d, want 1", r.counter("elastic_drains_forced_total"))
	}
	if len(r.pool.removes) != 1 {
		t.Fatalf("forced drain did not complete: removes = %v", r.pool.removes)
	}
}

func TestDrainRefusedByArbiterStopsCleanly(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.pool.drainErr = errors.New("infeasible")
	r.setDepth(0)
	for i := 0; i < 10; i++ {
		r.tick()
	}
	if r.counter("elastic_drains_refused_total") == 0 {
		t.Fatal("refused drain not counted")
	}
	if len(r.pool.removes) != 0 || len(r.prov.decommissioned) != 0 {
		t.Fatal("refused drain still decommissioned something")
	}
}

func TestProvisionRollbackWhenNodeNeverRises(t *testing.T) {
	r := newRig(t, nil)
	r.setDepth(20)
	r.tick()
	r.tick()
	r.tick() // provision fires at tick 3; riseTimeout = 10 ticks
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("provisioned = %v, want 1", r.prov.provisioned)
	}
	dud := r.prov.provisioned[0]
	// The daemon never rises; tick 13 rolls it back. Until then it is a
	// pool member the whole time, and down — never allocatable.
	for i := 0; i < 11; i++ {
		if st, ok := r.pool.StateOf(dud); i < 10 && (!ok || st != nodestate.Down) {
			t.Fatalf("after tick %d: dud is %v (member %v), want a down member", 3+i, st, ok)
		}
		r.tick()
		r.setDepth(20)
	}
	if r.counter("elastic_provision_rollbacks_total") != 1 {
		t.Fatalf("elastic_provision_rollbacks_total = %d, want 1",
			r.counter("elastic_provision_rollbacks_total"))
	}
	if len(r.prov.decommissioned) != 1 || r.prov.decommissioned[0] != dud {
		t.Fatalf("decommissioned = %v, want [%s]", r.prov.decommissioned, dud)
	}
	if r.pool.adds[0] != dud || !slices.Equal(r.pool.removes, []string{dud}) {
		t.Fatalf("adds = %v, removes = %v, want the dud in and out of the pool once", r.pool.adds, r.pool.removes)
	}
	if r.counter("elastic_scale_ups_total") != 0 {
		t.Fatal("rollback counted as a scale-up")
	}
}

func TestForecastVetoBlocksWorthlessGrowth(t *testing.T) {
	r := newRig(t, func(c *Config) {
		// The curves say a third node adds nothing.
		c.MarginalValue = func(k int) float64 {
			if k >= 2 {
				return 0
			}
			return 100
		}
	})
	r.setDepth(20)
	for i := 0; i < 10; i++ {
		r.tick()
	}
	if len(r.prov.provisioned) != 0 {
		t.Fatalf("vetoed growth still provisioned: %v", r.prov.provisioned)
	}
	if r.counter("elastic_forecast_vetoes_total") == 0 {
		t.Fatal("forecast veto not counted")
	}
}

func TestAllMembersDownFreezesScaling(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.pool.fail("ion0:1")
	r.pool.fail("ion1:1")
	for i := 0; i < 20; i++ {
		r.tick()
	}
	if len(r.prov.provisioned) != 0 || len(r.pool.draining()) != 0 {
		t.Fatalf("outage treated as demand signal: prov=%v draining=%v",
			r.prov.provisioned, r.pool.draining())
	}
}

func TestCompleteDrainAbortsIfStillAssigned(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	quietAll := func(string) bool { return true }
	r.s.cfg.Quiesced = quietAll
	r.setDepth(0)
	for i := 0; i < 4; i++ {
		r.tick()
	}
	victim := ""
	for addr := range r.pool.draining() {
		victim = addr
	}
	if victim == "" {
		t.Fatal("no drain started")
	}
	r.pool.assigned[victim] = true // a solve raced the drain
	r.tick()
	r.tick() // quiet twice → completion attempt → RemoveION refused
	if len(r.prov.decommissioned) != 0 {
		t.Fatalf("assigned node decommissioned: %v", r.prov.decommissioned)
	}
	if r.counter("elastic_drains_aborted_total") == 0 {
		t.Fatal("racy completion must abort the drain")
	}
}

func TestStaleSamplesSkipped(t *testing.T) {
	// A node whose load sample went stale is absent from Load, so it sits
	// out both the demand average and the victim ranking: a frozen depth
	// is evidence of prober trouble, not load. Up but absent, it is
	// counted as skipped on every tick.
	r := newRig(t, func(c *Config) { c.Min = 1 })
	// ion1's huge-but-stale depth would otherwise mask the idle trend
	// (avg 50 sits inside the hysteresis band); filtered out, the average
	// is 0 and the only drain candidate is the fresh idle ion0.
	r.health.depth["ion0:1"] = 0
	r.health.depth["ion1:1"] = 100
	r.health.stale["ion1:1"] = true
	for i := 0; i < 4; i++ { // DownSustain
		r.tick()
	}
	if !r.pool.draining()["ion0:1"] {
		t.Fatalf("fresh idle node not drained; draining=%v", r.pool.draining())
	}
	if r.pool.draining()["ion1:1"] {
		t.Fatal("stale-sampled node picked as drain victim")
	}
	if got := r.counter("elastic_stale_samples_skipped_total"); got != 4 {
		t.Fatalf("stale skip counter = %d, want 4 (one per tick)", got)
	}
}

func TestAllSamplesStaleFreezesScaling(t *testing.T) {
	// Every sample stale is a prober blackout, not a demand signal: the
	// scaler must hold position exactly as if all members were down.
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.setDepth(0) // would otherwise drain after DownSustain
	r.health.stale["ion0:1"] = true
	r.health.stale["ion1:1"] = true
	for i := 0; i < 10; i++ {
		r.tick()
	}
	if len(r.pool.draining()) != 0 || len(r.prov.provisioned) != 0 {
		t.Fatalf("scaled on all-stale evidence: draining=%v provisioned=%v",
			r.pool.draining(), r.prov.provisioned)
	}
}

// activityQuiesced is a Quiesced seam shaped like livestack's: a node is
// quiet when its depth is zero at this look and at the one before, so
// the first look at a node is never quiet.
func (r *rig) activityQuiesced() func(string) bool {
	last := map[string]int64{}
	return func(addr string) bool {
		prev, seen := last[addr]
		d := r.health.depth[addr]
		last[addr] = d
		return seen && prev == 0 && d == 0
	}
}

// TestIdleDrainCompletesGracefully: an idle node's drain completes
// QuiesceSweeps+1 ticks after its DrainStart — the first look never
// counts as quiet — well inside drainDeadline, so it is never forced,
// however long each sweep takes.
func TestIdleDrainCompletesGracefully(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.s.cfg.Quiesced = r.activityQuiesced()
	r.setDepth(0)
	for i := 0; i < 4; i++ { // DownSustain: DrainStart at tick 4
		r.tick()
	}
	if !slices.Equal(r.pool.starts, []string{"ion0:1"}) {
		t.Fatalf("drain starts = %v, want [ion0:1] at tick 4", r.pool.starts)
	}
	for i := 0; i < r.s.cfg.QuiesceSweeps; i++ {
		r.tick()
		if len(r.pool.removes) != 0 {
			t.Fatalf("drain completed %d ticks after DrainStart, want %d", i+1, r.s.cfg.QuiesceSweeps+1)
		}
	}
	r.tick()
	if !slices.Equal(r.pool.removes, []string{"ion0:1"}) {
		t.Fatalf("removes = %v, want [ion0:1] %d ticks after DrainStart", r.pool.removes, r.s.cfg.QuiesceSweeps+1)
	}
	if got := r.counter("elastic_drains_forced_total"); got != 0 {
		t.Fatalf("elastic_drains_forced_total = %d, want 0: an idle node drains gracefully", got)
	}
	if got := r.counter("elastic_scale_downs_total"); got != 1 {
		t.Fatalf("elastic_scale_downs_total = %d, want 1", got)
	}
}

// TestScalerDecisionTicksAreScripted runs one script — a burst, a provisioner
// outage inside it, then idleness — and pins the tick of every decision:
// each node added to the pool in the tick that provisions it and settled
// (a scale-up) the tick after it rose, the up cooldown (10), the
// provisioning retries 1, 2, 4, 8, 16, 30, 30 ticks apart, the flip gate
// (20 after the last provision) and the down cooldown (20) between
// drains, each drain done QuiesceSweeps+1 ticks after it started.
func TestScalerDecisionTicksAreScripted(t *testing.T) {
	r := newRig(t, nil)
	r.s.cfg.Quiesced = r.activityQuiesced()
	var log []string
	var provs, adds, starts, removes int
	var fails, ups int64
	for tick := 1; tick <= 200; tick++ {
		switch tick {
		case 15:
			r.prov.failNext = 1 << 30 // the provisioner dies
		case 100:
			r.prov.failNext = 0 // and comes back
		}
		for _, a := range r.prov.provisioned { // a provisioned daemon rises within one sweep
			if _, known := r.pool.st[a]; known {
				r.pool.rise(a)
			}
		}
		demand := int64(20)
		if tick > 115 {
			demand = 0
		}
		r.setDepth(demand)
		r.tick()

		for _, a := range r.prov.provisioned[provs:] {
			log = append(log, fmt.Sprintf("%d provision %s", tick, a))
		}
		if f := r.counter("elastic_provision_failures_total"); f > fails {
			log = append(log, fmt.Sprintf("%d provision fails", tick))
			fails = f
		}
		for _, a := range r.pool.adds[adds:] {
			log = append(log, fmt.Sprintf("%d add %s", tick, a))
		}
		if u := r.counter("elastic_scale_ups_total"); u > ups {
			log = append(log, fmt.Sprintf("%d scale-up", tick))
			ups = u
		}
		for _, a := range r.pool.starts[starts:] {
			log = append(log, fmt.Sprintf("%d drain %s", tick, a))
		}
		for _, a := range r.pool.removes[removes:] {
			log = append(log, fmt.Sprintf("%d remove %s", tick, a))
		}
		provs, adds, starts, removes = len(r.prov.provisioned), len(r.pool.adds), len(r.pool.starts), len(r.pool.removes)
	}
	want := []string{
		"3 provision ion10:1", "3 add ion10:1", "4 scale-up",
		"13 provision ion11:1", "13 add ion11:1", "14 scale-up",
		"23 provision fails", "24 provision fails", "26 provision fails", "30 provision fails",
		"38 provision fails", "54 provision fails", "84 provision fails",
		"114 provision ion12:1", "114 add ion12:1", "115 scale-up",
		"134 drain ion0:1", "137 remove ion0:1",
		"154 drain ion10:1", "157 remove ion10:1", // "ion10:1" sorts before "ion1:1"
		"174 drain ion11:1", "177 remove ion11:1",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("decisions:\n  %s\nwant:\n  %s", strings.Join(log, "\n  "), strings.Join(want, "\n  "))
	}
	if got := r.counter("elastic_drains_forced_total"); got != 0 {
		t.Fatalf("elastic_drains_forced_total = %d, want 0", got)
	}
}

// TestScalerReadsNoClock: the scaler's only time unit is the tick, so no
// non-test file of the package may import a clock or a random source.
func TestScalerReadsNoClock(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "time" || strings.HasPrefix(imp, "math/rand") {
			t.Errorf("%v imports %q: windows, cooldowns, deadlines and the backoff count ticks", pkg.GoFiles, imp)
		}
	}
}
