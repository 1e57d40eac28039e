package ion

import "sync"

// dedupTable gives a daemon exactly-once write semantics over an
// at-least-once transport. Forwarded requests arrive stamped with a
// (clientID, seq) identity; the table remembers, per client, a bounded
// window of recently committed outcomes so a transport-retried request
// whose first attempt was applied (but whose response was lost) replays
// the cached outcome instead of re-executing.
//
// Three states per (clientID, seq):
//
//   - absent: the caller wins execution and commits its outcome after;
//   - in flight: an earlier attempt is still executing — the caller waits
//     for its commit and re-claims, so concurrent duplicates coalesce onto
//     one execution instead of racing it;
//   - committed: the cached outcome is returned for replay.
//
// Outcomes that never reached execution (busy sheds, closed-queue
// rejects) are committed with applied=false, which removes the entry: the
// operation was not performed, so a retry must execute it for real.
// Committed entries are evicted FIFO per client once the window is full;
// in-flight entries are never evicted. Sizing and the guarantee's limits
// are documented in DESIGN.md ("Integrity model").
//
// An idle window costs a claim nothing but its two map operations: entries
// are held by value, the eviction order is a fixed ring of window seqs,
// and an entry gets a channel only when a second attempt has to wait on it.
type dedupTable struct {
	mu      sync.Mutex
	window  int
	clients map[string]*clientWindow
}

type clientWindow struct {
	entries map[uint64]dedupEntry
	order   []uint64 // ring of the last len(order) committed seqs
	commits int      // the next commit takes slot commits % len(order), the oldest's
}

// outcome is what a replay repeats of an applied write: everything else in
// the response is the identity the retry itself carries.
type outcome struct {
	size int64
	err  string
}

type dedupEntry struct {
	outcome
	committed bool
	waiting   chan struct{} // made by the first attempt that waits, closed at commit
}

func newDedupTable(window int) *dedupTable {
	return &dedupTable{window: window, clients: make(map[string]*clientWindow)}
}

// claim resolves one attempt at (clientID, seq): replay means out is the
// committed outcome to repeat; a non-nil inflight means wait on it, then
// claim again; otherwise the caller executes and then calls commit on cw
// exactly once.
func (t *dedupTable) claim(clientID string, seq uint64) (cw *clientWindow, out outcome, replay bool, inflight <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cw = t.clients[clientID]
	if cw == nil {
		cw = &clientWindow{entries: make(map[uint64]dedupEntry), order: make([]uint64, t.window)}
		t.clients[clientID] = cw
	}
	e, ok := cw.entries[seq]
	switch {
	case !ok:
		cw.entries[seq] = dedupEntry{}
	case e.committed:
		return cw, e.outcome, true, nil
	default:
		if e.waiting == nil {
			e.waiting = make(chan struct{})
			cw.entries[seq] = e
		}
		inflight = e.waiting
	}
	return cw, outcome{}, false, inflight
}

// commit ends the execution claim granted on cw for seq. applied=false
// means the operation never ran and the seq must stay claimable.
func (t *dedupTable) commit(cw *clientWindow, seq uint64, out outcome, applied bool) {
	t.mu.Lock()
	waiting := cw.entries[seq].waiting
	if applied {
		cw.entries[seq] = dedupEntry{outcome: out, committed: true}
		slot := &cw.order[cw.commits%len(cw.order)]
		if cw.commits >= len(cw.order) {
			delete(cw.entries, *slot)
		}
		*slot = seq
		cw.commits++
	} else {
		delete(cw.entries, seq)
	}
	t.mu.Unlock()
	if waiting != nil {
		close(waiting)
	}
}

// size reports the total committed+in-flight entries (tests only).
func (t *dedupTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, cw := range t.clients {
		n += len(cw.entries)
	}
	return n
}
