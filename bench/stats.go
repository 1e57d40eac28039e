package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p·n samples at or
// below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder is the set of percentiles a latency report may quote.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it is
// quoted: below that the "percentile" is a handful of outliers.
const minBeyond = 10

// highestTail picks the highest ladder percentile that still has at least
// minBeyond of n samples beyond it; ok is false when even the median does
// not (n < 20).
func highestTail(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// beyond is the number of samples strictly above the nearest-rank
// p-quantile of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// summary is the order statistics of one sample set.
type summary struct {
	N           int
	Q1, Med, Q3 float64
	P90, P99    float64
	Tail        float64 // value at TailPct
	TailPct     float64 // highest percentile with ≥ minBeyond samples beyond
}

// summarize sorts xs in place and returns its order statistics. An empty
// set yields the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	s := summary{
		N:   len(xs),
		Q1:  percentile(xs, 0.25),
		Med: percentile(xs, 0.5),
		Q3:  percentile(xs, 0.75),
		P90: percentile(xs, 0.9),
		P99: percentile(xs, 0.99),
	}
	if p, ok := highestTail(len(xs)); ok {
		s.TailPct, s.Tail = p, percentile(xs, p)
	}
	return s
}

// trimmedRate is the throughput, in ops per second, of the ops whose
// latencies (µs, ascending) are given, the slowest share trim of them left
// out: ops kept ÷ time spent inside them.
func trimmedRate(sorted []float64, trim float64) float64 {
	keep := len(sorted) - int(math.Ceil(trim*float64(len(sorted))))
	var us float64
	for _, x := range sorted[:keep] {
		us += x
	}
	if us == 0 {
		return 0
	}
	return float64(keep) / us * 1e6
}

// median returns the nearest-rank median of xs (0 when empty) without
// disturbing the caller's order.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return percentile(c, 0.5)
}
