// Package stats provides the small set of order statistics and distribution
// summaries used by the experiment harness: minimum, median, maximum,
// arbitrary percentiles, and mean. The paper reports min/median/max bands
// (Fig. 3) and medians over 10,000 sampled application sets (Fig. 2).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Summary captures the order statistics the paper reports.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Median float64
	Mean   float64
	P25    float64
	P75    float64
	Stddev float64
}

// Summarize computes a Summary over xs. It does not modify xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	n := float64(len(s))
	mean := sum / n
	// Two-pass variance: summing squared deviations from the mean avoids
	// the catastrophic cancellation of the sumsq/n − mean² form, which
	// loses all precision when the spread is tiny relative to the
	// magnitude (e.g. bandwidths in B/s clustered around 10⁹).
	var m2 float64
	for _, v := range s {
		d := v - mean
		m2 += d * d
	}
	variance := m2 / n
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Median: quantileSorted(s, 0.5),
		Mean:   mean,
		P25:    quantileSorted(s, 0.25),
		P75:    quantileSorted(s, 0.75),
		Stddev: math.Sqrt(variance),
	}, nil
}

// Median returns the sample median, NaN for empty input.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Min returns the sample minimum, NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the sample maximum, NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks (the same convention as numpy's default). It does
// not modify xs. NaN for empty input or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
