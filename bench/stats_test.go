package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// The picker quotes the highest percentile that still has at least ten
// samples beyond it.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0}, {n: 19},
		{n: 20, want: 0.5, ok: true},
		{n: 99, want: 0.5, ok: true},
		{n: 100, want: 0.9, ok: true},
		{n: 999, want: 0.9, ok: true},
		{n: 1000, want: 0.99, ok: true},
		{n: 9999, want: 0.99, ok: true},
		{n: 10000, want: 0.999, ok: true},
		{n: 100000, want: 0.9999, ok: true},
		{n: 5000000, want: 0.9999, ok: true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("highestTail(%d) = %v leaves only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s.N != 0 || s.Med != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: summarize must sort
	}
	s := summarize(xs)
	if s.N != 1000 || s.Q1 != 250 || s.Med != 500 || s.Q3 != 750 || s.P90 != 900 || s.P99 != 990 {
		t.Errorf("summary = %+v", s)
	}
	if s.TailPct != 0.99 || s.Tail != 990 {
		t.Errorf("tail = %v at %v, want 990 at 0.99", s.Tail, s.TailPct)
	}
	if short := summarize(xs[:999]); short.TailPct != 0.9 {
		t.Errorf("999 samples: tail pct %v, want 0.9", short.TailPct)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTrimmedRate(t *testing.T) {
	// 98 ops of 10 µs and two stalls: the stalls are the slowest 2 %.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 10
	}
	lat[98], lat[99] = 3000, 4000
	if got := trimmedRate(lat, 0.02); got != 1e5 {
		t.Errorf("trimmed rate = %v ops/s, want 100000", got)
	}
	lat[99] = 6020 // the 100 ops now take 10 ms
	if got := trimmedRate(lat, 0); got != 1e4 {
		t.Errorf("untrimmed rate = %v ops/s, want 10000", got)
	}
	// Fewer than 1/trim ops: the slowest one still goes.
	if got := trimmedRate([]float64{10, 10, 1000}, 0.02); got != 1e5 {
		t.Errorf("three ops: %v ops/s, want 100000", got)
	}
}
