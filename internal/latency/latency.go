// Package latency keeps small per-key latency sketches: fixed-window
// rings of recent durations with cheap quantile queries. It is the
// shared substrate of the gray-failure defense — the health prober
// feeds probe round-trip times into it, the forwarding client feeds
// client-observed call latencies into the same sketch, the fail-slow
// scorer reads per-node medians out of it, and the hedging layer reads
// per-node tail quantiles to set adaptive hedge deadlines.
//
// A sketch is deliberately tiny: a ring of the last Window samples per
// key, beside a sorted shadow of the same samples that Observe keeps in
// order with one remove and one insert. A quantile query is therefore an
// index into the shadow — no sort, no copy, no heap allocation — which is
// what the forwarding path needs when hedging asks for one per span.
// All methods are safe for concurrent use and safe on a nil *Sketch
// (observations are dropped, queries report no data), so layers can
// thread an optional sketch without guarding every call site.
package latency

import (
	"slices"
	"sync"
	"time"
)

// DefaultWindow is the per-key ring size used when NewSketch is given
// a non-positive window.
const DefaultWindow = 64

// Sketch tracks a sliding window of durations per string key.
type Sketch struct {
	window int

	mu    sync.Mutex
	rings map[string]*ring
}

type ring struct {
	buf    []time.Duration
	sorted []time.Duration // the occupied window of buf, ascending
	next   int             // index of the slot the next sample overwrites
	n      uint64          // total samples ever observed
}

// NewSketch returns a sketch holding the last window samples per key.
func NewSketch(window int) *Sketch {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Sketch{window: window, rings: make(map[string]*ring)}
}

// Observe records one sample for key. No-op on a nil sketch.
func (s *Sketch) Observe(key string, d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	r := s.rings[key]
	if r == nil {
		r = &ring{buf: make([]time.Duration, s.window), sorted: make([]time.Duration, 0, s.window)}
		s.rings[key] = r
	}
	if len(r.sorted) == len(r.buf) {
		// The sample being overwritten leaves the shadow too.
		i, _ := slices.BinarySearch(r.sorted, r.buf[r.next])
		r.sorted = slices.Delete(r.sorted, i, i+1)
	}
	i, _ := slices.BinarySearch(r.sorted, d)
	r.sorted = slices.Insert(r.sorted, i, d)
	r.buf[r.next] = d
	r.next++
	r.n++
	if r.next == len(r.buf) {
		r.next = 0
	}
	s.mu.Unlock()
}

// Samples reports how many samples are currently in key's window.
func (s *Sketch) Samples(key string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rings[key]
	if r == nil {
		return 0
	}
	return len(r.sorted)
}

// Total reports how many samples were ever observed for key, including
// ones that have rotated out of the window.
func (s *Sketch) Total(key string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rings[key]
	if r == nil {
		return 0
	}
	return r.n
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1) of key's current window.
// The second return is false when the key has no samples.
func (s *Sketch) Quantile(key string, q float64) (time.Duration, bool) {
	if s == nil {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rings[key]
	if r == nil || len(r.sorted) == 0 {
		return 0, false
	}
	return r.sorted[int(q*float64(len(r.sorted)-1))], true
}

// Median is Quantile(key, 0.5).
func (s *Sketch) Median(key string) (time.Duration, bool) {
	return s.Quantile(key, 0.5)
}

// Forget drops all samples for key, e.g. when a node leaves the pool.
func (s *Sketch) Forget(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.rings, key)
	s.mu.Unlock()
}
