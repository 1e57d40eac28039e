// Package elastic is the capacity plane of the forwarding stack: an
// autoscaler that breathes the I/O-node pool with demand. It watches the
// health prober's per-node queue-depth samples, decides from sustained
// watermark crossings (optionally vetoed by a perfmodel marginal-value
// forecast) whether the pool should grow or shrink, and then walks every
// node through an explicit lifecycle engineered for failure first:
//
//	Provision ─→ provisioning (a pool member, down) ─(first Rise)─→ member
//	                  │
//	                  └─(rise deadline passes)─→ removed, disposed
//
//	member ─(DrainStart)─→ draining ─(quiesced N sweeps, or deadline)─→ gone
//	                  │
//	                  └─(node dies, or still assigned)─→ drain aborted
//
// Scale-up provisions through a Provisioner seam behind a capped
// exponential backoff, so a dead provisioner degrades the scaler — the
// pool stops growing, probed once per capped wait — and never the data
// path. Scale-down uses the arbiter's graceful drain: traffic migrates
// off first, decommission happens only after the node has been quiet, so
// no acked write is ever stranded on a vanished daemon.
//
// Anti-flap is structural, not tuned: separate up/down watermarks with a
// mandatory gap, sustained-signal windows (one hot sweep is a burst, not
// a trend), per-direction cooldowns, and a max-step clamp per decision.
// The scaler has no clock: every window, cooldown, deadline and backoff
// counts Ticks, which the caller makes once per probe sweep, so a run is
// the same sequence of decisions whatever the sweeps' wall-clock length.
//
// The pool is the scaler's only table of nodes: a member is leaving when
// the pool shows it Draining, provisioning while the scaler holds its rise
// deadline, and settled otherwise.
package elastic

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/nodestate"
	"repro/internal/telemetry"
)

// Provisioner spawns and destroys I/O-node daemons. Provision returns
// the address of a freshly started daemon (not yet trusted — it joins the
// pool down, and only its first health rise makes it allocatable). Decommission
// releases a daemon the scaler is done with; it must be safe to call for
// a daemon that is already dead.
type Provisioner interface {
	Provision() (addr string, err error)
	Decommission(addr string) error
}

// Pool is the arbiter surface the scaler drives and reads (implemented by
// *arbiter.Arbiter): membership — AddION admits a node down — the two
// drain events through Transition, and the members and each one's
// condition, which the health prober's events keep current. It is the
// scaler's only record of which nodes exist.
type Pool interface {
	Pool() []string
	AddION(addr string) error
	RemoveION(addr string) error
	Transition(addr string, ev nodestate.Event) error
	StateOf(addr string) (nodestate.State, bool)
}

// Health is the demand signal the scaler reads (implemented by
// *health.Prober): the last sampled queue depth per pool member that is
// up and whose sample is fresh. A node never sampled, or whose sample
// went stale (a probe path that stopped carrying load reports), is
// absent, so the scaler never acts on evidence from before a probe
// blackout.
type Health interface {
	Load() map[string]int64
}

// Config parameterizes a Scaler. Every window, cooldown and deadline in
// it counts ticks: the caller sets the cadence (livestack ticks once per
// probe sweep), and the defaults are the seconds they were at a 1 s one.
type Config struct {
	// Min and Max bound the target pool size (members plus in-flight
	// provisions, minus drains). Min ≥ 1 and Max ≥ Min are required.
	Min, Max int

	// UpWatermark: average queue depth across up, non-draining members at
	// or above this for UpSustain consecutive ticks asks for growth.
	// DownWatermark: average at or below this for DownSustain consecutive
	// ticks asks for shrink. UpWatermark > DownWatermark is required —
	// the gap between them is the hysteresis band that kills flapping.
	UpWatermark, DownWatermark float64
	// UpSustain / DownSustain are the consecutive-tick windows; ≤0
	// selects 3 and 5 (shrinking should take more convincing).
	UpSustain, DownSustain int
	// UpCooldown / DownCooldown are how many ticks after a scale event
	// the same direction may fire again; ≤0 selects 5 and 30.
	UpCooldown, DownCooldown int
	// FlipQuiet is how many ticks after a scale event the OPPOSITE
	// direction may fire. A scale-up is itself evidence of demand, so a
	// shrink moments later is a flap by definition — and each add
	// triggers a re-arbitration whose remap stall briefly collapses the
	// queue-depth signal, which would otherwise feed the down streak.
	// ≤0 selects max(UpCooldown, DownCooldown).
	FlipQuiet int
	// MaxStep clamps how many nodes one decision may add or drain; ≤0
	// selects 1.
	MaxStep int

	// QuiesceSweeps consecutive quiet ticks complete a drain; ≤0 selects
	// 2. A drain that is not done drainDeadline ticks after it started is
	// forced.
	QuiesceSweeps int
	// Quiesced reports whether addr has no queued or in-flight work.
	// Required when the scaler may shrink (Min < Max); livestack supplies
	// an activity-delta check over the daemon's counters.
	Quiesced func(addr string) bool

	// MarginalValue, when non-nil, forecasts the value of growing from k
	// to k+1 nodes (e.g. the summed marginal bandwidth of the running
	// apps' perfmodel curves). A scale-up step is vetoed when the
	// forecast is not positive: capacity the curves say nobody can use is
	// not worth provisioning.
	MarginalValue func(k int) float64

	// Telemetry receives scaler metrics; nil disables them.
	Telemetry *telemetry.Registry
}

const (
	// drainDeadline bounds how many ticks a drain may wait for quiescence
	// before the node is decommissioned anyway: in-flight work fails
	// over, and waiting forever would leak the node.
	drainDeadline = 30
	// riseTimeout bounds how many ticks a provisioned node may take to
	// pass its first health rise before it is rolled back and disposed.
	riseTimeout = 10
	// maxBackoff caps the provisioning backoff: after n consecutive
	// provisioning failures (rollbacks included) the next attempt waits
	// min(2^(n-1), maxBackoff) ticks, so a provisioner that stays dead is
	// probed once per maxBackoff ticks.
	maxBackoff = 30
)

// Validate reports the first bounds rule cfg breaks. New applies it;
// whoever assembles a Config ahead of New (livestack.Config.Validate)
// calls it to fail before anything is started. The seams New's caller
// fills in (Quiesced) are checked by New.
func (cfg *Config) Validate() error {
	if cfg.Min < 1 {
		return fmt.Errorf("elastic: Min must be at least 1, got %d", cfg.Min)
	}
	if cfg.Max < cfg.Min {
		return fmt.Errorf("elastic: Max (%d) must be at least Min (%d)", cfg.Max, cfg.Min)
	}
	if cfg.UpWatermark <= cfg.DownWatermark {
		return fmt.Errorf("elastic: UpWatermark (%g) must exceed DownWatermark (%g) — the gap is the hysteresis band that prevents flapping",
			cfg.UpWatermark, cfg.DownWatermark)
	}
	return nil
}

// withDefaults validates cfg and fills the documented defaults.
func (cfg Config) withDefaults() (Config, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Min < cfg.Max && cfg.Quiesced == nil {
		return cfg, errors.New("elastic: Quiesced is required when the pool may shrink")
	}
	if cfg.UpSustain <= 0 {
		cfg.UpSustain = 3
	}
	if cfg.DownSustain <= 0 {
		cfg.DownSustain = 5
	}
	if cfg.UpCooldown <= 0 {
		cfg.UpCooldown = 5
	}
	if cfg.DownCooldown <= 0 {
		cfg.DownCooldown = 30
	}
	if cfg.FlipQuiet <= 0 {
		cfg.FlipQuiet = max(cfg.UpCooldown, cfg.DownCooldown)
	}
	if cfg.MaxStep <= 0 {
		cfg.MaxStep = 1
	}
	if cfg.QuiesceSweeps <= 0 {
		cfg.QuiesceSweeps = 2
	}
	return cfg, nil
}

// Scaler drives the pool lifecycle. All decisions happen inside Tick; it
// runs no goroutine of its own. Which nodes exist and what condition each
// is in is the pool's: every Tick reads it afresh, so the scaler counts
// whatever the pool holds, whoever put it there. The scaler keeps only the
// timers of what it started itself.
type Scaler struct {
	cfg    Config
	pool   Pool
	prov   Provisioner
	health Health

	mu            sync.Mutex
	rising        map[string]int    // nodes it provisioned that have not risen: address → rise deadline (a tick)
	drains        map[string]*drain // drains it started, by address
	tick          int               // Ticks so far; every window counts them
	upStreak      int
	downStreak    int
	upNotBefore   int // first tick a scale-up may fire
	dnNotBefore   int // first tick a scale-down may fire
	provFails     int // consecutive provisioning failures
	provNotBefore int // first tick a provision may be attempted

	tel struct {
		scaleUps, scaleDowns        *telemetry.Counter
		drainsStarted               *telemetry.Counter
		drainsAborted, drainsForced *telemetry.Counter
		drainsRefused               *telemetry.Counter
		provsStarted, provFailures  *telemetry.Counter
		provRollbacks               *telemetry.Counter
		forecastVetoes              *telemetry.Counter
		staleSkipped                *telemetry.Counter
		poolSize, provisioning      *telemetry.Gauge
	}
}

// drain is the scaler's timer on one drain it started.
type drain struct {
	deadline int // the tick the drain is forced
	quiet    int // consecutive quiesced ticks
}

// New builds a scaler over an arbiter pool, a provisioner, and a health
// plane. Every member the pool holds is the scaler's to count from its
// first Tick on.
func New(cfg Config, pool Pool, prov Provisioner, health Health) (*Scaler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if pool == nil || prov == nil || health == nil {
		return nil, errors.New("elastic: pool, provisioner, and health are all required")
	}
	s := &Scaler{
		cfg:    cfg,
		pool:   pool,
		prov:   prov,
		health: health,
		rising: map[string]int{},
		drains: map[string]*drain{},
	}
	reg := cfg.Telemetry
	s.tel.scaleUps = reg.Counter("elastic_scale_ups_total")
	s.tel.scaleDowns = reg.Counter("elastic_scale_downs_total")
	s.tel.drainsStarted = reg.Counter("elastic_drains_started_total")
	s.tel.drainsAborted = reg.Counter("elastic_drains_aborted_total")
	s.tel.drainsForced = reg.Counter("elastic_drains_forced_total")
	s.tel.drainsRefused = reg.Counter("elastic_drains_refused_total")
	s.tel.provsStarted = reg.Counter("elastic_provisions_started_total")
	s.tel.provFailures = reg.Counter("elastic_provision_failures_total")
	s.tel.provRollbacks = reg.Counter("elastic_provision_rollbacks_total")
	s.tel.forecastVetoes = reg.Counter("elastic_forecast_vetoes_total")
	s.tel.staleSkipped = reg.Counter("elastic_stale_samples_skipped_total")
	s.tel.poolSize = reg.Gauge("elastic_pool_size")
	s.tel.provisioning = reg.Gauge("elastic_provisioning")
	s.updateGauges(s.readPool())
	return s, nil
}

// Tick advances every lifecycle and takes at most one scaling decision.
// The caller owns the cadence: livestack's control-plane loop ticks once
// per probe sweep, after the sweep's events reached the arbiter, so every
// window, cooldown and deadline counts sweeps.
func (s *Scaler) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	pool := s.readPool()
	s.advanceProvisioning(pool)
	s.advanceDraining(pool)
	s.decide(pool)
	s.updateGauges(pool)
}

// readPool reads the pool's members, ascending, and their conditions. The
// tick's own removals and drain aborts edit the copy, so each step counts
// the pool the steps before it left. Caller holds the lock.
func (s *Scaler) readPool() map[string]nodestate.State {
	addrs := s.pool.Pool()
	sort.Strings(addrs)
	out := make(map[string]nodestate.State, len(addrs))
	for _, addr := range addrs {
		if st, ok := s.pool.StateOf(addr); ok { // not removed since Pool returned
			out[addr] = st
		}
	}
	return out
}

// ascending returns m's addresses in ascending order: nodes that move in
// the same tick reach the pool and the provisioner in one order, so one
// seed journals and publishes one sequence of pools.
func ascending[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for addr := range m {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// advanceProvisioning settles provisioned nodes whose first health rise
// reached the pool and rolls back the ones that did not make the
// deadline. Caller holds the lock.
func (s *Scaler) advanceProvisioning(pool map[string]nodestate.State) {
	for _, addr := range ascending(s.rising) {
		if st, in := pool[addr]; in && !st.Has(nodestate.Down) {
			// First rise achieved: the Rise already made the node
			// allocatable and re-arbitrated; the scaler only settles it.
			delete(s.rising, addr)
			s.tel.scaleUps.Inc()
			s.provFails = 0
			continue
		}
		if s.tick >= s.rising[addr] {
			// The daemon never rose: take it out of the pool — down, it
			// was never assigned — and dispose of it. A rollback is a
			// provisioning failure as far as the backoff is concerned —
			// the provisioner is handing out duds.
			delete(s.rising, addr)
			delete(pool, addr)
			_ = s.pool.RemoveION(addr)
			_ = s.prov.Decommission(addr)
			s.tel.provRollbacks.Inc()
			s.provisionFailed()
		}
	}
}

// advanceDraining completes quiesced drains, forces ones past deadline,
// and abandons drains the pool has ended underneath them. Caller holds the
// lock.
func (s *Scaler) advanceDraining(pool map[string]nodestate.State) {
	for _, addr := range ascending(s.drains) {
		d := s.drains[addr]
		if !pool[addr].Has(nodestate.Draining) {
			// The pool no longer shows the drain: the node died mid-drain
			// (a Fail clears Draining), a DrainAbort came from elsewhere,
			// or the node left the pool. A dead node stays a member,
			// down — warm restart may revive it; decommissioning a corpse
			// the pool still counts would strand its comeback.
			delete(s.drains, addr)
			s.tel.drainsAborted.Inc()
			continue
		}
		if s.cfg.Quiesced(addr) {
			d.quiet++
		} else {
			d.quiet = 0
		}
		if d.quiet >= s.cfg.QuiesceSweeps {
			s.completeDrain(addr, pool)
		} else if s.tick >= d.deadline {
			// Quiescence never came (a wedged op, a chatty client). The
			// deadline bounds how long capacity stays reserved: complete
			// anyway — clients re-send and fail over to the direct PFS
			// path, so forcing is safe, just not free.
			s.tel.drainsForced.Inc()
			s.completeDrain(addr, pool)
		}
	}
}

// completeDrain removes addr everywhere and decommissions the daemon.
// Caller holds the lock.
func (s *Scaler) completeDrain(addr string, pool map[string]nodestate.State) {
	delete(s.drains, addr)
	if err := s.pool.RemoveION(addr); err != nil {
		// Still assigned — a solve raced the drain. Never yank a routed
		// node: put it back and let a later decision try again.
		_ = s.pool.Transition(addr, nodestate.DrainAbort)
		pool[addr] &^= nodestate.Draining
		s.tel.drainsAborted.Inc()
		return
	}
	_ = s.prov.Decommission(addr)
	delete(pool, addr)
	s.tel.scaleDowns.Inc()
}

// decide reads the demand signal and takes at most one scaling decision.
// Caller holds the lock.
func (s *Scaler) decide(pool map[string]nodestate.State) {
	// Load omits stale samples, so a node that is up but absent from it
	// sits out both the demand average and the scale-down victim ranking,
	// exactly like a down one.
	depths := s.health.Load()
	settled := 0
	var up []string // settled members with a fresh sample
	var sum int64
	for addr, st := range pool {
		d, sampled := depths[addr] // present only for up nodes
		if !sampled && !st.Has(nodestate.Down) {
			s.tel.staleSkipped.Inc()
		}
		if _, rising := s.rising[addr]; rising || st.Has(nodestate.Draining) {
			continue
		}
		settled++
		if sampled {
			up = append(up, addr)
			sum += d
		}
	}
	if len(up) == 0 {
		// All members down is an outage, not a demand signal; scaling on
		// it would thrash a pool that needs repair, not resize.
		s.upStreak, s.downStreak = 0, 0
		return
	}
	avg := float64(sum) / float64(len(up))
	switch {
	case avg >= s.cfg.UpWatermark:
		s.upStreak++
		s.downStreak = 0
	case avg <= s.cfg.DownWatermark:
		s.downStreak++
		s.upStreak = 0
	default: // inside the hysteresis band: no trend either way
		s.upStreak, s.downStreak = 0, 0
	}

	// Size counts where the pool is heading: draining nodes are leaving,
	// provisioning ones arriving.
	size := settled + len(s.rising)

	if s.upStreak >= s.cfg.UpSustain && size < s.cfg.Max && s.tick >= s.upNotBefore {
		step := s.cfg.MaxStep
		if size+step > s.cfg.Max {
			step = s.cfg.Max - size
		}
		added := 0
		for i := 0; i < step; i++ {
			if s.cfg.MarginalValue != nil && s.cfg.MarginalValue(size+added) <= 0 {
				s.tel.forecastVetoes.Inc()
				break
			}
			if !s.provision() {
				break
			}
			added++
		}
		if added > 0 {
			s.upNotBefore = s.tick + s.cfg.UpCooldown
			s.upStreak = 0
			s.dnNotBefore = max(s.dnNotBefore, s.tick+s.cfg.FlipQuiet)
		}
		return
	}

	// Shrink is budgeted pessimistically, unlike growth: an in-flight
	// provision may still fail its rise and roll back, so it can never
	// cover for a member being drained away — otherwise the drains it
	// "covered" complete and the settled pool undershoots Min.
	if s.downStreak >= s.cfg.DownSustain && settled > s.cfg.Min && s.tick >= s.dnNotBefore {
		step := s.cfg.MaxStep
		if settled-step < s.cfg.Min {
			step = settled - s.cfg.Min
		}
		drained := 0
		for _, addr := range victims(up, depths, step) {
			if err := s.pool.Transition(addr, nodestate.DrainStart); err != nil {
				// The arbiter refused (infeasible move, node just died,
				// …): respect it and stop — conditions that block one
				// drain block them all this tick.
				s.tel.drainsRefused.Inc()
				break
			}
			s.drains[addr] = &drain{deadline: s.tick + drainDeadline}
			s.tel.drainsStarted.Inc()
			drained++
		}
		if drained > 0 {
			s.dnNotBefore = s.tick + s.cfg.DownCooldown
			s.downStreak = 0
			s.upNotBefore = max(s.upNotBefore, s.tick+s.cfg.FlipQuiet)
		}
	}
}

// victims picks up to n scale-down candidates from cand, the settled
// members that are up: least queue depth first (address as tiebreak, so
// the choice is deterministic).
func victims(cand []string, depths map[string]int64, n int) []string {
	sort.Slice(cand, func(i, j int) bool {
		if depths[cand[i]] != depths[cand[j]] {
			return depths[cand[i]] < depths[cand[j]]
		}
		return cand[i] < cand[j]
	})
	if len(cand) > n {
		cand = cand[:n]
	}
	return cand
}

// provision asks the Provisioner for one node, gated by the backoff.
// Returns whether a provision is now in flight. Caller holds the lock.
func (s *Scaler) provision() bool {
	if s.tick < s.provNotBefore {
		return false
	}
	addr, err := s.prov.Provision()
	if err != nil {
		s.tel.provFailures.Inc()
		s.provisionFailed()
		return false
	}
	// The newcomer joins the pool down, journaled at once: the prober
	// watches it from the next sweep, and it must rise on its own merits
	// before the arbiter may route to it.
	if err := s.pool.AddION(addr); err != nil {
		_ = s.prov.Decommission(addr)
		s.tel.provFailures.Inc()
		s.provisionFailed()
		return false
	}
	s.rising[addr] = s.tick + riseTimeout
	s.tel.provsStarted.Inc()
	return true
}

// provisionFailed records one provisioning failure: the n-th in a row
// holds the next attempt back min(2^(n-1), maxBackoff) ticks. Caller
// holds the lock.
func (s *Scaler) provisionFailed() {
	s.provFails++
	wait := maxBackoff
	if shift := s.provFails - 1; shift < 5 { // 2^5 is past the cap
		wait = 1 << shift
	}
	s.provNotBefore = s.tick + wait
}

// updateGauges refreshes the pool gauges from the pool the tick left:
// its members less the scaler's own that have not risen, and those.
// Caller holds the lock.
func (s *Scaler) updateGauges(pool map[string]nodestate.State) {
	size := 0
	for addr := range pool {
		if _, rising := s.rising[addr]; !rising {
			size++
		}
	}
	s.tel.poolSize.Set(int64(size))
	s.tel.provisioning.Set(int64(len(s.rising)))
}
