// Hedged requests: the tail-tolerance half of the gray-failure path. A
// span whose primary RPC exceeds the per-I/O-node hedge deadline — an
// adaptive percentile of that node's recently observed latencies, from
// the same sketch the health prober scores — gets one backup attempt:
//
//   - writes hedge to the SAME I/O node with the same (ClientID, Seq)
//     stamp, so whichever attempt arrives second is coalesced or replayed
//     by the daemon's dedup window (see internal/ion) and the bytes land
//     exactly once. That is why hedging requires Dedup: without the
//     window a duplicate write would be a second apply.
//   - reads hedge to the direct PFS path into a private buffer; the bytes
//     reach the caller's slice on the caller's own goroutine, after the
//     primary has returned, so nothing else ever writes that slice.
//
// A hedge does nothing until its deadline passes. The primary runs inline
// on the caller's goroutine under one pooled, re-armed time.AfterFunc
// timer: the common case is Reset → call → Stop → return, with no
// goroutine, channel, timer allocation or payload copy. Only when the
// timer fires does its callback (hedgeCall.launch, on the timer's own
// goroutine) spend a budget token, copy the request while the caller is
// still blocked in the primary, and run the backup. First usable response
// wins: a backup that finishes first interrupts the primary
// (rpc.Interrupt), whose conn is dropped rather than drained and whose
// elapsed time enters the latency sketch as a censored sample, so the
// fail-slow scorer keeps seeing the slow node; a primary that finishes
// first simply returns, and the backup releases its own response when it
// lands. Hedges are capped by a Finagle-style token budget (each issued
// span earns a fraction of a token, each hedge spends one) so a
// cluster-wide slowdown degrades into at most Budget extra load, never a
// retry storm. Write and read spans enter through one function, hedged,
// which returns callION's (resp, err) from whichever attempt the table
// chose — the fallback rule in fwd.go never learns there were two. Everything here
// is opt-in: with Hedge.Enabled false the client never constructs hedge
// state and the data path pays a single nil check.
package fwd

import (
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// HedgeConfig parameterizes tail-tolerant hedged requests. The zero value
// disables hedging entirely.
type HedgeConfig struct {
	// Enabled turns hedging on. Requires Config.Dedup: the hedged write
	// is a same-stamp duplicate that only the daemon's dedup window can
	// make exactly-once.
	Enabled bool
	// Pct is the latency quantile (0,1) of a node's recent calls used as
	// the hedge deadline: an op slower than this is assumed stuck behind
	// a gray failure and a backup attempt launches. ≤0 or ≥1 selects
	// 0.95 (hedge the slowest ~5%).
	Pct float64
	// MinDelay floors the hedge deadline so microsecond-fast healthy
	// nodes do not hedge on scheduler jitter; ≤0 selects 1ms.
	MinDelay time.Duration
	// Budget is the fraction of a hedge token each issued span earns
	// (Finagle-style): with 0.1, at most ~10% of spans can hedge in
	// steady state. ≤0 selects 0.1.
	Budget float64
}

// hedgeMaxTokens caps the token bucket, which starts full, so an idle
// period cannot bank an unbounded hedge burst.
const hedgeMaxTokens = 8

// withDefaults fills the derived defaults when hedging is enabled.
func (h HedgeConfig) withDefaults() HedgeConfig {
	if !h.Enabled {
		return h
	}
	if h.Pct <= 0 || h.Pct >= 1 {
		h.Pct = 0.95
	}
	if h.MinDelay <= 0 {
		h.MinDelay = time.Millisecond
	}
	if h.Budget <= 0 {
		h.Budget = 0.1
	}
	return h
}

// hedgeState is a hedging client's machinery: the resolved config, the
// token budget, the pool of idle per-span states, and the observability
// series. nil on non-hedging clients.
type hedgeState struct {
	cfg    HedgeConfig
	bucket hedgeBucket
	calls  sync.Pool // *hedgeCall whose timer never fired

	launched *telemetry.Counter
	wins     *telemetry.Counter
	denied   *telemetry.Counter
}

// hedgeBucket is the Finagle-style token budget: issued spans earn
// fractional tokens, up to hedgeMaxTokens, and a hedge spends a whole one.
type hedgeBucket struct {
	mu     sync.Mutex
	tokens float64
}

func (b *hedgeBucket) earn(x float64) {
	b.mu.Lock()
	b.tokens = min(b.tokens+x, hedgeMaxTokens)
	b.mu.Unlock()
}

func (b *hedgeBucket) trySpend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// hedgeOutcome is what a backup attempt produced, in callION's shape: its
// own result for a duplicated write; for a direct read an unpooled response
// holding the bytes (a short read is a usable answer, so its sentinel is
// dropped before the outcome is stored). It is usable — it can win — only
// without an error: a direct-path fallback (a shed, an unreachable node)
// must not win a write hedge, because the other attempt may still apply on
// the I/O node.
type hedgeOutcome struct {
	resp *rpc.Message
	err  error
}

// hedgeCall is one span's hedge: the timer that decides whether a backup
// launches, the handle that interrupts the primary when the backup wins,
// and the rendezvous between the caller (running the primary) and the
// timer callback (running the backup). While the timer has not fired only
// the caller touches it, and it goes back to the pool; once it fired it is
// shared with launch, serves this span only and is left to the collector.
type hedgeCall struct {
	c     *Client
	timer *time.Timer // AfterFunc(launch), re-armed for every span
	it    rpc.Interrupt

	// Set by armHedge before the timer runs. The request is held by value — the
	// primary sends this copy — so the caller's Message literal never
	// escapes, hedging client or not.
	req rpc.Message
	t   *target

	mu          sync.Mutex
	primaryDone bool          // the caller is past the primary
	abandoned   bool          // the caller kept the primary's outcome: launch releases the backup's
	won         bool          // the backup finished first and usable, and interrupted the primary
	finished    bool          // out is set
	done        chan struct{} // made when the backup launches, closed when it finished
	out         hedgeOutcome
}

// timedCall is callION plus the latency observation that feeds the shared
// sketch (and through it the health prober's fail-slow scorer and this
// client's own hedge deadlines). start is the span's clock, read by hedged
// before the hedge timer was armed — a primary cut off by its hedge must
// never measure shorter than the hedge delay. Sketch-less clients fall
// straight through — one nil check, no clock read.
//
// Which calls are samples is classRules' sample column. A primary abandoned
// to its hedge is one: the time it had taken when it was cut off is a lower
// bound on its latency, and leaving it out would hide exactly the node the
// fail-slow scorer is looking for.
func (c *Client) timedCall(t *target, req *rpc.Message, it *rpc.Interrupt, start time.Time) (*rpc.Message, error) {
	resp, err := c.callION(t, req, it)
	if c.cfg.Latency != nil && classRules[rpc.ClassOf(err)].sample {
		c.cfg.Latency.Observe(t.addr, time.Since(start))
	}
	return resp, err
}

// armHedge starts the hedge clock for one span about to be sent to t,
// or returns nil when this span must go unhedged: a non-hedging client,
// or a node without enough samples yet — the sketch cannot distinguish
// slow from unknown. The caller sends &st.req with &st.it and then calls
// disarm.
func (c *Client) armHedge(t *target, req *rpc.Message) *hedgeCall {
	h := c.hedge
	if h == nil {
		return nil
	}
	h.bucket.earn(h.cfg.Budget)
	delay, ok := c.cfg.Latency.Quantile(t.addr, h.cfg.Pct)
	if !ok {
		return nil
	}
	if delay < h.cfg.MinDelay {
		delay = h.cfg.MinDelay
	}
	st, _ := h.calls.Get().(*hedgeCall)
	if st == nil {
		st = &hedgeCall{c: c}
	}
	st.req, st.t = *req, t
	if st.timer == nil {
		st.timer = time.AfterFunc(delay, st.launch)
	} else {
		st.timer.Reset(delay)
	}
	return st
}

// disarm stops the hedge clock after the primary returned. true is the
// common case: the timer had not fired, nothing else ever saw st, and it
// is recycled. false means launch is running or about to — the caller
// must settle with it.
func (h *hedgeState) disarm(st *hedgeCall) bool {
	if !st.timer.Stop() {
		return false
	}
	st.req = rpc.Message{} // do not pin the caller's payload in the pool
	h.calls.Put(st)
	return true
}

// launch is the timer callback: the primary has been out longer than the
// hedge deadline. It spends a token, copies the request and runs the
// backup, then either wins (interrupting the primary) or leaves its
// outcome for the caller to settle.
func (st *hedgeCall) launch() {
	c, h := st.c, st.c.hedge
	st.mu.Lock()
	if st.primaryDone {
		// The primary returned while the timer was firing.
		st.mu.Unlock()
		return
	}
	if !h.bucket.trySpend() {
		h.denied.Inc()
		st.mu.Unlock()
		return
	}
	h.launched.Inc()
	st.done = make(chan struct{})
	// The copy happens under mu, which the caller takes before it returns:
	// it is still inside (or just past) the primary, so its buffer is
	// intact, and it is free to reuse it the moment Write returns. A write
	// duplicate keeps the (ClientID, Seq) stamp, so the daemon's dedup
	// window coalesces the in-flight pair or replays the committed
	// outcome: one apply, two answers.
	dup := st.req
	dup.Data = append([]byte(nil), st.req.Data...)
	st.mu.Unlock()

	var out hedgeOutcome
	if dup.Op == rpc.OpRead {
		buf := make([]byte, dup.Size)
		n, err := c.cfg.Direct.Read(dup.Path, dup.Offset, buf)
		out = hedgeOutcome{resp: &rpc.Message{Data: buf[:n]}, err: shortOK(err)}
	} else {
		out.resp, out.err = c.callION(st.t, &dup, nil)
	}

	st.mu.Lock()
	st.out, st.finished = out, true
	switch {
	case st.abandoned:
		out.resp.Release()
	case !st.primaryDone && out.err == nil:
		st.won = true
		st.it.Fire()
	}
	st.mu.Unlock()
	close(st.done)
}

// settle is the caller's half of the decision, taken after the primary
// returned with the timer already fired. It returns the backup's outcome
// when that replaces the primary's: the backup finished first and usable,
// or the primary's outcome does not stand on its own (an error or a
// direct-path fallback of a write — racing a direct write against an I/O
// node apply that may still be in flight is not safe) and the backup,
// waited for, turned out usable. Otherwise the primary's outcome is the
// span's, exactly as on the unhedged path, and the backup's is released.
func (st *hedgeCall) settle(primaryStands bool) (hedgeOutcome, bool) {
	st.mu.Lock()
	st.primaryDone = true
	done, won, finished := st.done, st.won, st.finished
	if primaryStands && !won {
		st.abandoned = true
	}
	st.mu.Unlock()
	switch {
	case done == nil:
		// No backup: the budget denied it, or launch lost the race for mu
		// and will see primaryDone.
		return hedgeOutcome{}, false
	case won:
	case primaryStands:
		if finished {
			st.out.resp.Release() // an unusable backup that finished first
		}
		return hedgeOutcome{}, false
	default:
		<-done
		if st.out.err != nil {
			st.out.resp.Release()
			return hedgeOutcome{}, false
		}
	}
	st.c.hedge.wins.Inc()
	return st.out, true
}

// hedged issues one span's RPC, hedged when the client is configured for
// it, and returns the result of whichever attempt the decision table
// chose. It has exactly callION's contract, so the fallback rule
// (classify) sees one outcome per span and never learns there were two
// attempts: a losing or unusable backup counts nothing. A read's own
// fallbacks already end at the path its hedge takes, so its primary's
// outcome always stands unless the backup won; a write's stands only when
// it is usable.
func (c *Client) hedged(t *target, req *rpc.Message) (*rpc.Message, error) {
	var start time.Time
	if c.cfg.Latency != nil {
		start = time.Now()
	}
	st := c.armHedge(t, req)
	if st == nil {
		return c.timedCall(t, req, nil, start)
	}
	resp, err := c.timedCall(t, &st.req, &st.it, start)
	if c.hedge.disarm(st) {
		return resp, err
	}
	if out, ok := st.settle(req.Op == rpc.OpRead || err == nil); ok {
		resp.Release()
		return out.resp, out.err
	}
	return resp, err
}
