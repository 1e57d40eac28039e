package agios

// HBRR is the handle-based round-robin scheduler of Ohta et al. (the
// quantum-based scheduler the paper's related work cites for the IOFSL
// forwarding layer): requests are grouped per file handle, handles are
// served round-robin, and each handle may dispatch up to Quantum requests
// per turn — reordered within the turn to be contiguous (ascending
// offsets) and merged when adjacent, which is HBRR's aggregation benefit.
type HBRR struct {
	// Quantum is the number of requests a handle may dispatch per turn;
	// ≤0 selects 8.
	Quantum int
	// MaxAggregate bounds a merged dispatch in bytes; ≤0 selects 8 MiB.
	MaxAggregate int64

	fileRing
	spent int // requests served from the current handle this turn
	count int
}

// NewHBRR returns an HBRR scheduler with the given per-handle quantum.
func NewHBRR(quantum int) *HBRR {
	if quantum <= 0 {
		quantum = 8
	}
	return &HBRR{Quantum: quantum, fileRing: fileRing{files: make(map[string]*fileQueue)}}
}

// Name implements Scheduler.
func (h *HBRR) Name() string { return "HBRR" }

// Push implements Scheduler. Requests are kept offset-sorted per handle so
// each turn dispatches contiguously.
func (h *HBRR) Push(r *Request) {
	h.insert(r)
	h.count++
}

// Pop implements Scheduler. The turn passes on when the handle has used up
// its quantum or drained.
func (h *HBRR) Pop() (*Request, bool) {
	if h.count == 0 {
		return nil, false
	}
	if h.spent >= h.Quantum {
		h.spent = 0
		h.next()
	}
	maxAgg := h.MaxAggregate
	if maxAgg <= 0 {
		maxAgg = 8 << 20
	}
	merged, taken, drained := h.take(maxAgg)
	h.count -= taken
	h.spent += taken
	if drained {
		h.spent = 0
	}
	return merged, true
}

// Len implements Scheduler.
func (h *HBRR) Len() int { return h.count }

// insert keeps the per-file queue offset-sorted (stable on ties).
func (fq *fileQueue) insert(r *Request) {
	lo, hi := 0, len(fq.reqs)
	for lo < hi {
		mid := (lo + hi) / 2
		if fq.reqs[mid].Offset < r.Offset ||
			(fq.reqs[mid].Offset == r.Offset && fq.reqs[mid].Seq <= r.Seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	fq.reqs = append(fq.reqs, nil)
	copy(fq.reqs[lo+1:], fq.reqs[lo:])
	fq.reqs[lo] = r
}
