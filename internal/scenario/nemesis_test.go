package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/elastic"
	"repro/internal/faultnet"
	"repro/internal/nodestate"
)

// Fault is one kind of nemesis step; each undoes itself before the next.
type Fault int

const (
	Kill         Fault = iota // close an I/O node, warm-restart it after the hold
	Corrupt                   // flip bits on its wire (faultnet.Corrupt)
	Delay                     // delay its I/O (faultnet.Delay)
	Reset                     // reset its connections (faultnet.Reset)
	Cut                       // cut its frames mid-way (faultnet.DropAfter)
	Slow                      // make it slow but alive (faultnet.Slow)
	Blackout                  // crash the control plane, recover it from the journal
	BlackoutKill              // a Blackout in which an allocated I/O node dies
	nFaults
)

func (f Fault) String() string {
	return [nFaults]string{"kill", "corrupt", "delay", "reset", "cut", "slow", "blackout", "blackout+kill"}[f]
}

// Mix weighs the faults a drawn schedule picks from.
type Mix [nFaults]int

// Nemesis is a fault schedule: Script when set, else Steps draws from Mix.
// Every choice — fault, victim, hold, plan — comes from Seed.
type Nemesis struct {
	Seed   int64
	Steps  int
	Mix    Mix
	Script []Fault
}

// Report is what a nemesis did.
type Report struct {
	Events   []string
	Restarts int      // kill → warm-restart cycles completed
	Killed   []string // addresses it killed
	Flipped  int64    // bits its Corrupt plans flipped
}

// Unleash runs n against the rig one fault at a time, until the schedule
// ends or done closes (nil: never). What each recovery publishes is
// checked on the spot and kept for Check's no-shrink oracle; the error
// reports a step the nemesis could not carry out.
func (r *Rig) Unleash(n Nemesis, done <-chan struct{}) (*Report, error) {
	rng := rand.New(rand.NewSource(n.Seed))
	script := n.Script
	for len(script) < n.Steps && n.Script == nil {
		total := 0
		for _, w := range n.Mix {
			total += w
		}
		f, pick := Fault(0), rng.Intn(total)
		for ; pick >= n.Mix[f]; f++ {
			pick -= n.Mix[f]
		}
		script = append(script, f)
	}
	rep := &Report{}
	for i, f := range script {
		if !sleep(done, time.Duration(20+rng.Intn(60))*time.Millisecond) {
			break
		}
		if err := r.inflict(f, rng, rep, done); err != nil {
			return rep, fmt.Errorf("nemesis step %d (%s): %w", i, f, err)
		}
	}
	return rep, nil
}

// sleep waits d, or until done closes (false).
func sleep(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return false
	case <-time.After(d):
		return true
	}
}

func (r *Rig) inflict(f Fault, rng *rand.Rand, rep *Report, done <-chan struct{}) error {
	if f >= Blackout {
		return r.blackout(f, rng, rep)
	}
	var live []string // pool members not draining, in daemon order
	for _, a := range r.IONAddrs() {
		if st, ok := r.Arbiter.StateOf(a); ok && !st.Has(nodestate.Draining) {
			live = append(live, a)
		}
	}
	addr := live[rng.Intn(len(live))]
	hold := time.Duration(30+rng.Intn(60)) * time.Millisecond
	if f == Slow {
		hold *= 4 // long enough for the fail-slow scorer to see it
	}
	rep.Events = append(rep.Events, fmt.Sprintf("%s %s hold %v", f, r.name(addr), hold))
	plan := faultnet.Plan{Kind: faultnet.Slow, Delay: time.Duration(10+rng.Intn(30)) * time.Millisecond, Seed: rng.Int63()}
	switch f {
	case Kill:
		r.DaemonAt(addr).Close()
		rep.Killed = append(rep.Killed, addr)
		time.Sleep(hold)
		return r.revive(addr, rep)
	case Corrupt:
		plan = faultnet.Plan{Kind: faultnet.Corrupt, Seed: rng.Int63(), FlipOneIn: 4}
	case Delay:
		plan = faultnet.Plan{Kind: faultnet.Delay, Delay: time.Duration(2+rng.Intn(8)) * time.Millisecond}
	case Reset:
		plan = faultnet.Plan{Kind: faultnet.Reset}
	case Cut:
		plan = faultnet.Plan{Kind: faultnet.DropAfter, Bytes: int64(200 + rng.Intn(4000))}
	}
	inj := r.net(addr)
	inj.Set(plan)
	sleep(done, hold)
	rep.Flipped += inj.Flipped()
	inj.Set(faultnet.Plan{})
	return nil
}

// Revive warm-restarts the killed I/O node at addr. A restart is refused
// while the node drains, so it is retried until the drain resolves: an
// aborted drain leaves a member to restart, a completed one took the node
// out of the pool (Revive then reports false).
func (r *Rig) Revive(addr string) (bool, error) {
	i := slices.Index(r.IONAddrs(), addr)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		err := r.RestartION(i)
		if err == nil || !slices.Contains(r.Arbiter.Pool(), addr) {
			return err == nil, nil
		}
		if time.Now().After(deadline) {
			return false, fmt.Errorf("revive %s: %w", r.name(addr), err)
		}
	}
}

func (r *Rig) revive(addr string, rep *Report) error {
	restarted, err := r.Revive(addr)
	if restarted {
		rep.Restarts++
	}
	return err
}

// blackout crashes the control plane — with BlackoutKill, an allocated I/O
// node dies while it is down — and recovers it from the journal. Then it
// states the no-shrink oracle, for Check to report: the crash dropped the
// whole control plane and the recovery was not degraded; every job
// survives, and none shrinks unless capacity was lost in the dark; the
// fence revokes every pre-crash epoch; the node that died is marked down
// and routes nothing. That node is warm-restarted afterwards.
func (r *Rig) blackout(f Fault, rng *rand.Rand, rep *Report) error {
	before, version := r.Arbiter.Current(), r.Bus.Version()
	down := len(r.Arbiter.NodesIn(nodestate.Down))
	if err := r.CrashControlPlane(); err != nil {
		return err
	}
	var broken []error
	if r.Arbiter != nil || r.Journal != nil || r.Health != nil || r.Scaler != nil {
		broken = append(broken, fmt.Errorf("control plane still referenced after the crash"))
	}
	var jobs []string
	for job, alloc := range before {
		if f == BlackoutKill && len(alloc) > 0 {
			jobs = append(jobs, job)
		}
	}
	sort.Strings(jobs)
	corpse := ""
	if len(jobs) > 0 {
		alloc := before[jobs[rng.Intn(len(jobs))]]
		corpse = alloc[rng.Intn(len(alloc))]
		r.DaemonAt(corpse).Close()
		rep.Killed = append(rep.Killed, corpse)
	}
	dark := time.Duration(100+rng.Intn(150)) * time.Millisecond
	rep.Events = append(rep.Events, fmt.Sprintf("%s %s dark %v", f, r.name(corpse), dark))
	time.Sleep(dark)
	if err := r.RecoverControlPlane(); r.Arbiter == nil {
		return fmt.Errorf("recover: %w", err)
	} else if err != nil {
		broken = append(broken, fmt.Errorf("degraded recovery: %w", err))
	}

	after, lost := r.Arbiter.Current(), len(r.Arbiter.NodesIn(nodestate.Down)) > down
	for job, had := range before {
		if now, ok := after[job]; !ok || !lost && len(now) < len(had) {
			broken = append(broken, fmt.Errorf("job %s recovered with %d of its %d nodes (capacity lost: %v)", job, len(now), len(had), lost))
		}
		if corpse != "" && slices.Contains(after[job], corpse) {
			broken = append(broken, fmt.Errorf("recovered mapping routes %s to %s, dead in the dark", job, r.name(corpse)))
		}
	}
	if fence := r.Bus.Current().Fence; fence <= version {
		broken = append(broken, fmt.Errorf("fence %d does not revoke pre-crash version %d", fence, version))
	}
	if st, _ := r.Arbiter.StateOf(corpse); corpse != "" && !st.Has(nodestate.Down) {
		broken = append(broken, fmt.Errorf("%s died in the dark but recovered as %v", r.name(corpse), st))
	}
	r.mu.Lock()
	r.recovery = append(r.recovery, broken...)
	r.mu.Unlock()
	if corpse == "" {
		return nil
	}
	return r.revive(corpse, rep)
}

// name is the daemon name ("ionNN") of the I/O node at addr.
func (r *Rig) name(addr string) string {
	if i := slices.Index(r.IONAddrs(), addr); i >= 0 {
		return fmt.Sprintf("ion%02d", i)
	}
	return "none"
}

// Flaky is the provisioning nemesis: the scaler's provisioner, failing the
// Provision calls FailCalls names. Wrap is its Config.WrapProvisioner.
type Flaky struct {
	mu            sync.Mutex
	inner         elastic.Provisioner
	fail          map[int64]bool
	calls, failed int64
}

// Wrap puts the nemesis in front of inner — the stack's own provisioner,
// handed again to every scaler a recovery restarts.
func (p *Flaky) Wrap(inner elastic.Provisioner) elastic.Provisioner {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inner = inner
	return p
}

// FailCalls makes the given Provision calls, counted from 1, fail.
func (p *Flaky) FailCalls(calls ...int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail == nil {
		p.fail = map[int64]bool{}
	}
	for _, c := range calls {
		p.fail[c] = true
	}
}

// Failed counts the calls it failed.
func (p *Flaky) Failed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

func (p *Flaky) Provision() (string, error) {
	p.mu.Lock()
	p.calls++
	n, fail, inner := p.calls, p.fail[p.calls], p.inner
	if fail {
		p.failed++
	}
	p.mu.Unlock()
	if fail {
		return "", fmt.Errorf("nemesis: provisioning outage (call %d)", n)
	}
	return inner.Provision()
}

func (p *Flaky) Decommission(addr string) error {
	p.mu.Lock()
	inner := p.inner
	p.mu.Unlock()
	return inner.Decommission(addr)
}
