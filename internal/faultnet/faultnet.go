// Package faultnet injects deterministic network faults between the
// forwarding client and an I/O-node daemon. It wraps a net.Listener so
// every accepted connection observes the Injector's current Plan:
// connections can be refused at accept, reset mid-stream, hung
// indefinitely, delayed per I/O call, or cut after a byte budget.
//
// The injector is the chaos half of the failure-tolerance story: the rpc
// layer's deadlines and retries (internal/rpc), the client's per-node gate
// (internal/fwd), the health prober (internal/health) and the arbiter's Fail/Rise transitions
// are all exercised against these faults in the chaos scenarios. Unlike
// scenario.Backend — which slows *storage* behind a healthy daemon —
// faultnet makes the daemon itself unreachable, which is what an I/O-node
// crash looks like from a compute node.
//
// Faults are fully deterministic: the Plan is explicit shared state, not a
// probability, and Set replaces it atomically. Setting a new plan releases
// connections currently blocked in a Hang so tests can script
// outage-then-recovery sequences without leaking goroutines.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Kind selects a fault behaviour.
type Kind int

const (
	// None passes traffic through untouched.
	None Kind = iota
	// Refuse closes every new connection immediately at accept, before
	// any bytes flow — what a dead daemon's OS does to SYN packets.
	Refuse
	// Reset closes the connection on the next read or write — an abrupt
	// crash mid-exchange.
	Reset
	// Hang blocks every read and write until the plan changes or the
	// connection is closed — a wedged daemon that accepts but never
	// answers. This is what per-call deadlines exist to catch.
	Hang
	// Delay sleeps before every read and write — a congested or
	// overloaded network path.
	Delay
	// DropAfter lets Bytes flow (summed across reads and writes), then
	// hangs — a failure mid-message, after the client committed to it.
	DropAfter
	// Corrupt flips a single bit in roughly one of every FlipOneIn I/O
	// buffers, in both directions, drawn from a rand stream seeded by
	// Seed — a flaky NIC or a bad switch port. Connections stay up and
	// bytes keep flowing; only their content lies. This is the fault the
	// CRC32C wire trailer (internal/rpc) exists to catch.
	Corrupt
	// Slow models a gray failure: the connection keeps working and every
	// byte arrives intact, but I/O in the selected direction(s) pays a
	// delay — optionally ramping up from zero over Plan.Ramp (a node
	// going bad gradually, not at once), optionally applied to only 1 in
	// Plan.DelayOneIn calls from a Seed-seeded stream (intermittent
	// stalls), optionally rate-limited to Plan.Rate bytes/second. With
	// Dir set to one direction this is an asymmetric slowdown: requests
	// arrive promptly but responses crawl, or vice versa — the failure
	// mode fail-stop detectors (deadlines, breakers, liveness probes)
	// never see, and the one the fail-slow scorer and hedged requests
	// exist to catch.
	Slow
)

// String names the kind for test output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Refuse:
		return "refuse"
	case Reset:
		return "reset"
	case Hang:
		return "hang"
	case Delay:
		return "delay"
	case DropAfter:
		return "drop-after"
	case Corrupt:
		return "corrupt"
	case Slow:
		return "slow"
	default:
		return "unknown"
	}
}

// Direction selects which side(s) of a connection a Slow plan throttles,
// named from the wrapped (server) end: Inbound is the server reading the
// client's requests, Outbound is the server writing its responses.
type Direction int

const (
	// Inbound slows server-side reads (client → server bytes).
	Inbound Direction = 1 << iota
	// Outbound slows server-side writes (server → client bytes).
	Outbound
	// Both slows both directions — the zero Plan.Dir also means Both.
	Both = Inbound | Outbound
)

// Plan is one fault configuration.
type Plan struct {
	// Kind selects the behaviour.
	Kind Kind
	// Delay is the per-I/O sleep for Kind Delay.
	Delay time.Duration
	// Bytes is the budget for Kind DropAfter.
	Bytes int64
	// Seed starts the deterministic rand stream for Kind Corrupt. The
	// same seed yields the same flip decisions in the same draw order
	// (concurrent connections interleave draws, so cross-run determinism
	// holds per sequence of I/O calls, not per wall clock).
	Seed int64
	// FlipOneIn is the corruption rate for Kind Corrupt: one bit flipped
	// in roughly 1 of every FlipOneIn buffers. ≤0 disables flipping.
	FlipOneIn int
	// Dir selects the slowed direction(s) for Kind Slow; zero means Both.
	Dir Direction
	// Ramp, for Kind Slow, grows the per-I/O delay linearly from zero at
	// plan-install time to the full Delay after Ramp has elapsed — a node
	// degrading gradually. Zero applies the full Delay immediately.
	Ramp time.Duration
	// DelayOneIn, for Kind Slow, applies the delay to roughly 1 of every
	// DelayOneIn I/O calls, drawn from the Seed-seeded stream; ≤1 delays
	// every call. Intermittent stalls are the hardest gray failure to
	// catch — most calls are fast, the tail is terrible.
	DelayOneIn int
	// Rate, for Kind Slow, caps slowed directions at Rate bytes/second
	// (each I/O sleeps its buffer's transmission time). ≤0 means no cap.
	Rate int64
}

// ErrInjected marks errors produced by the injector, so tests can tell a
// scripted fault from a real one.
var ErrInjected = errors.New("faultnet: injected fault")

// Injector holds the current plan, shared by a listener wrapper and all
// its connections.
type Injector struct {
	mu        sync.Mutex
	plan      Plan
	budget    int64         // remaining DropAfter bytes
	wake      chan struct{} // closed (and replaced) on every Set, releasing hangs
	rng       *rand.Rand    // Corrupt flip / Slow skip decisions; nil for other kinds
	flipped   int64         // bits flipped since the Corrupt plan was installed
	installed time.Time     // when the current plan was set (Slow ramps from here)
}

// NewInjector starts with the given plan.
func NewInjector(plan Plan) *Injector {
	inj := &Injector{wake: make(chan struct{})}
	inj.install(plan)
	return inj
}

// Set atomically replaces the plan. Connections blocked in a Hang (or a
// Delay sleep, or an exhausted DropAfter) re-evaluate the new plan.
func (inj *Injector) Set(plan Plan) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.install(plan)
	close(inj.wake)
	inj.wake = make(chan struct{})
}

func (inj *Injector) install(plan Plan) {
	inj.plan = plan
	inj.budget = plan.Bytes
	inj.installed = time.Now()
	inj.rng = nil
	if plan.Kind == Corrupt {
		inj.rng = rand.New(rand.NewSource(plan.Seed))
		inj.flipped = 0
	}
	if plan.Kind == Slow && plan.DelayOneIn > 1 {
		inj.rng = rand.New(rand.NewSource(plan.Seed))
	}
}

// Plan returns the current plan.
func (inj *Injector) Plan() Plan {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.plan
}

// snapshot returns the plan and the wake channel that a blocked operation
// should wait on for plan changes.
func (inj *Injector) snapshot() (Plan, <-chan struct{}) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.plan, inj.wake
}

// consume takes up to n bytes from the DropAfter budget and reports how
// many may flow.
func (inj *Injector) consume(n int) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.budget <= 0 {
		return 0
	}
	if int64(n) > inj.budget {
		n = int(inj.budget)
	}
	inj.budget -= int64(n)
	return n
}

// corrupt possibly flips one bit of p in place, per the Corrupt plan's
// seeded rate, and reports whether it did.
func (inj *Injector) corrupt(p []byte) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.plan.Kind != Corrupt || inj.plan.FlipOneIn <= 0 || len(p) == 0 {
		return false
	}
	if inj.rng.Intn(inj.plan.FlipOneIn) != 0 {
		return false
	}
	p[inj.rng.Intn(len(p))] ^= 1 << inj.rng.Intn(8)
	inj.flipped++
	return true
}

// slowDelay computes the sleep one I/O of n bytes in direction dir owes
// under the current Slow plan (0 when none applies), along with the wake
// channel a sleeper should watch for plan changes. The DelayOneIn draw
// happens here, so each call to slowDelay is one draw from the seeded
// stream — deterministic per I/O-call sequence, like Corrupt's flips.
func (inj *Injector) slowDelay(dir Direction, n int) (time.Duration, <-chan struct{}) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	p := inj.plan
	if p.Kind != Slow {
		return 0, inj.wake
	}
	d := p.Dir
	if d == 0 {
		d = Both
	}
	if d&dir == 0 {
		return 0, inj.wake
	}
	if p.DelayOneIn > 1 && inj.rng.Intn(p.DelayOneIn) != 0 {
		return 0, inj.wake
	}
	delay := p.Delay
	if p.Ramp > 0 {
		if since := time.Since(inj.installed); since < p.Ramp {
			delay = time.Duration(float64(delay) * float64(since) / float64(p.Ramp))
		}
	}
	if p.Rate > 0 {
		delay += time.Duration(int64(n) * int64(time.Second) / p.Rate)
	}
	return delay, inj.wake
}

// Flipped reports how many bits the current Corrupt plan has flipped.
func (inj *Injector) Flipped() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.flipped
}

// WrapListener interposes inj on every connection accepted from ln.
func WrapListener(ln net.Listener, inj *Injector) net.Listener {
	return &listener{Listener: ln, inj: inj}
}

type listener struct {
	net.Listener
	inj *Injector
}

// Accept applies the Refuse fault and wraps surviving connections.
func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.inj.Plan().Kind == Refuse {
			c.Close()
			continue // keep serving: the fault is per-connection
		}
		return &Conn{Conn: c, inj: l.inj, closed: make(chan struct{})}, nil
	}
}

// Conn applies the injector's plan to one accepted connection.
type Conn struct {
	net.Conn
	inj       *Injector
	closeOnce sync.Once
	closed    chan struct{}
}

// gate blocks or errors according to the current plan; a nil return means
// the caller may perform its I/O. It re-evaluates the plan every time Set
// wakes it, so a Hang lifts when the fault is cleared.
func (c *Conn) gate() error {
	for {
		plan, wake := c.inj.snapshot()
		switch plan.Kind {
		case Reset:
			c.Close()
			return errInjectedReset
		case Hang:
			select {
			case <-wake:
				continue
			case <-c.closed:
				return errInjectedClosed
			}
		case Delay:
			t := time.NewTimer(plan.Delay)
			select {
			case <-t.C:
				return nil
			case <-wake:
				t.Stop()
				continue
			case <-c.closed:
				t.Stop()
				return errInjectedClosed
			}
		default:
			return nil
		}
	}
}

var (
	errInjectedReset  = &net.OpError{Op: "faultnet", Err: ErrInjected}
	errInjectedClosed = &net.OpError{Op: "faultnet", Err: net.ErrClosed}
)

// slowGate sleeps an I/O behind the current Slow plan's delay for its
// direction, re-evaluating on every plan change so a lifted fault releases
// sleepers immediately (like gate does for Hang and Delay).
func (c *Conn) slowGate(dir Direction, n int) error {
	for {
		d, wake := c.inj.slowDelay(dir, n)
		if d <= 0 {
			return nil
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
			return nil
		case <-wake:
			t.Stop()
			continue
		case <-c.closed:
			t.Stop()
			return errInjectedClosed
		}
	}
}

func (c *Conn) Read(p []byte) (int, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	if err := c.slowGate(Inbound, len(p)); err != nil {
		return 0, err
	}
	if c.inj.Plan().Kind == DropAfter {
		n := c.inj.consume(len(p))
		if n == 0 {
			return 0, c.starve()
		}
		p = p[:n]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.inj.corrupt(p[:n])
	}
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	if err := c.slowGate(Outbound, len(p)); err != nil {
		return 0, err
	}
	if c.inj.Plan().Kind == DropAfter {
		n := c.inj.consume(len(p))
		if n == 0 {
			return 0, c.starve()
		}
		k, err := c.Conn.Write(p[:n])
		if err != nil {
			return k, err
		}
		if n < len(p) {
			// The budget ran dry mid-buffer: the remainder is dropped.
			return k, c.starve()
		}
		return k, nil
	}
	if c.inj.Plan().Kind == Corrupt {
		// Never mutate the caller's buffer: rpc reuses encode buffers.
		dirty := make([]byte, len(p))
		copy(dirty, p)
		c.inj.corrupt(dirty)
		return c.Conn.Write(dirty)
	}
	return c.Conn.Write(p)
}

// starve blocks an exhausted DropAfter connection until the plan changes
// or the connection closes — mirroring a peer that went silent.
func (c *Conn) starve() error {
	for {
		plan, wake := c.inj.snapshot()
		if plan.Kind != DropAfter {
			return c.gate()
		}
		select {
		case <-wake:
		case <-c.closed:
			return errInjectedClosed
		}
	}
}

// Close releases any operation blocked by the plan, then closes the
// underlying connection.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
