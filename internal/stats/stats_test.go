package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasic(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || !almostEq(s.Median, 3) || !almostEq(s.Mean, 3) {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if !almostEq(s.P25, 2) || !almostEq(s.P75, 4) {
		t.Fatalf("quartiles wrong: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianEvenOdd(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); !almostEq(got, 2.5) {
		t.Fatalf("even median: got %v", got)
	}
	if got := Median([]float64{7}); !almostEq(got, 7) {
		t.Fatalf("single median: got %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("empty median should be NaN")
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30}
	if got := Quantile(xs, 0); !almostEq(got, 10) {
		t.Fatalf("q0: %v", got)
	}
	if got := Quantile(xs, 1); !almostEq(got, 30) {
		t.Fatalf("q1: %v", got)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Fatal("out-of-range q should be NaN")
	}
}

func TestMinMaxMean(t *testing.T) {
	xs := []float64{-2, 9, 3}
	if Min(xs) != -2 || Max(xs) != 9 || !almostEq(Mean(xs), 10.0/3) {
		t.Fatalf("min/max/mean wrong: %v %v %v", Min(xs), Max(xs), Mean(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) || !math.IsNaN(Mean(nil)) {
		t.Fatal("empty should give NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seedLen uint8) bool {
		n := int(seedLen)%50 + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qRaw) / 255
		v := Quantile(xs, q)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeStddevLargeMagnitude: the naive sumsq/n − mean² variance
// catastrophically cancels when the spread is tiny relative to the
// magnitude (bandwidths in B/s sit near 10⁹ with sub-B/s spread); the
// two-pass form must stay exact.
func TestSummarizeStddevLargeMagnitude(t *testing.T) {
	base := 1e9 // 1 GB/s expressed in B/s
	xs := []float64{base, base + 1, base + 2}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2.0 / 3.0) // population stddev of {0,1,2}
	if math.Abs(s.Stddev-want) > 1e-6 {
		t.Fatalf("stddev at magnitude 1e9: got %v, want %v", s.Stddev, want)
	}

	// Shift invariance: adding a constant must not change the spread.
	shifted := make([]float64, len(xs))
	for i, v := range xs {
		shifted[i] = v - base
	}
	s2, err := Summarize(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Stddev-s2.Stddev) > 1e-6 {
		t.Fatalf("stddev not shift-invariant: %v vs %v", s.Stddev, s2.Stddev)
	}
}

// TestSummarizeStddevConstant: a constant sample has zero spread, and the
// result must not go NaN via a negative variance.
func TestSummarizeStddevConstant(t *testing.T) {
	s, err := Summarize([]float64{7.25e11, 7.25e11, 7.25e11, 7.25e11})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stddev != 0 {
		t.Fatalf("constant sample stddev: %v", s.Stddev)
	}
}

func TestSummaryAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if s.Min != sorted[0] || s.Max != sorted[1000] || !almostEq(s.Median, sorted[500]) {
		t.Fatalf("order stats mismatch: %+v", s)
	}
}
