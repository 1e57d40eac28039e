package agios

// WFQ is the priority-aware scheduler the QoS layer runs on the I/O
// nodes: three FIFO sub-queues, one per service tier (guaranteed,
// standard, scavenger), served highest tier first with a bounded
// anti-starvation escape.
//
// The scheduling contract, stated as the two properties the tests pin:
//
//   - Bounded inversion: a guaranteed request that arrives behind k
//     already-queued scavenger requests is served after at most one
//     lower-tier dispatch (the one escape Pop may owe), never after the
//     whole burst. This is deliberately NOT strict preemption of work
//     already handed a dispatch slot — only queue order is decided
//     here.
//   - No starvation: while higher tiers stay busy, every EscapeEvery
//     consecutive higher-tier dispatches the scheduler serves one
//     request from the lowest non-empty tier, so a scavenger backlog
//     drains at a bounded fraction of throughput instead of waiting for
//     an idle moment that may never come.
//
// Within one tier, order is plain FIFO — fairness between tenants of the
// same class is the token buckets' job (admission), not the queue's.
type WFQ struct {
	// EscapeEvery is the number of consecutive higher-tier dispatches
	// after which one lower-tier request is served while lower tiers
	// wait; ≤0 selects 4 (a 20% floor for the lowest backlogged tier).
	EscapeEvery int

	tiers [3][]*Request // index: 0 scavenger, 1 standard, 2 guaranteed
	run   int           // consecutive dispatches above the lowest waiting tier
	count int
}

// NewWFQ returns a weighted fair queue with the given escape interval
// (≤0 selects the default, 4).
func NewWFQ(escapeEvery int) *WFQ {
	if escapeEvery <= 0 {
		escapeEvery = 4
	}
	return &WFQ{EscapeEvery: escapeEvery}
}

// Name implements Scheduler.
func (w *WFQ) Name() string { return "WFQ" }

// tierOf maps a wire priority to a sub-queue index. Unclassed requests
// (priority 0, the pre-QoS default) schedule exactly like standard.
func tierOf(p uint8) int {
	switch {
	case p >= 3:
		return 2
	case p == 1:
		return 0
	default: // 0 (unclassed) and 2 (standard)
		return 1
	}
}

// Push implements Scheduler.
func (w *WFQ) Push(r *Request) {
	t := tierOf(r.Priority)
	w.tiers[t] = append(w.tiers[t], r)
	w.count++
}

// Pop implements Scheduler: highest non-empty tier first, except that
// after EscapeEvery consecutive dispatches above a waiting lower tier,
// one request from the lowest non-empty tier is served.
func (w *WFQ) Pop() (*Request, bool) {
	if w.count == 0 {
		return nil, false
	}
	hi, lo := -1, -1
	for t := 2; t >= 0; t-- {
		if len(w.tiers[t]) > 0 {
			hi = t
			break
		}
	}
	for t := 0; t <= 2; t++ {
		if len(w.tiers[t]) > 0 {
			lo = t
			break
		}
	}
	pick := hi
	if lo != hi && w.run >= w.EscapeEvery {
		pick = lo
	}
	if pick == lo {
		// Either only one tier is busy, or this is the escape dispatch:
		// the starvation clock restarts.
		w.run = 0
	} else {
		w.run++
	}
	w.count--
	return popFront(&w.tiers[pick]), true
}

// Len implements Scheduler.
func (w *WFQ) Len() int { return w.count }
