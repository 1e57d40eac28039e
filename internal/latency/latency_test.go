package latency

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSketchQuantiles(t *testing.T) {
	s := NewSketch(0) // default window
	if _, ok := s.Median("a"); ok {
		t.Fatal("median of an empty key reported data")
	}
	for i := 1; i <= 100; i++ { // window keeps the last 64: 37..100
		s.Observe("a", time.Duration(i)*time.Millisecond)
	}
	if got := s.Samples("a"); got != DefaultWindow {
		t.Fatalf("Samples = %d, want %d", got, DefaultWindow)
	}
	if got := s.Total("a"); got != 100 {
		t.Fatalf("Total = %d, want 100", got)
	}
	med, ok := s.Median("a")
	if !ok {
		t.Fatal("median reported no data after 100 observations")
	}
	// Window holds 37ms..100ms; the median index (0.5 * 63 = 31) is 68ms.
	if med != 68*time.Millisecond {
		t.Fatalf("median = %v, want 68ms", med)
	}
	p99, _ := s.Quantile("a", 0.99)
	if p99 < 98*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~99ms", p99)
	}
	if min, _ := s.Quantile("a", 0); min != 37*time.Millisecond {
		t.Fatalf("p0 = %v, want 37ms (oldest retained)", min)
	}
	if max, _ := s.Quantile("a", 1); max != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", max)
	}
}

func TestSketchPartialWindowAndForget(t *testing.T) {
	s := NewSketch(8)
	s.Observe("n", 5*time.Millisecond)
	s.Observe("n", 1*time.Millisecond)
	s.Observe("n", 3*time.Millisecond)
	if med, ok := s.Median("n"); !ok || med != 3*time.Millisecond {
		t.Fatalf("median of {5,1,3}ms = %v (ok=%v), want 3ms", med, ok)
	}
	// Out-of-range quantiles clamp instead of panicking.
	if _, ok := s.Quantile("n", -1); !ok {
		t.Fatal("q=-1 should clamp to min")
	}
	if _, ok := s.Quantile("n", 2); !ok {
		t.Fatal("q=2 should clamp to max")
	}
	s.Forget("n")
	if got := s.Samples("n"); got != 0 {
		t.Fatalf("Samples after Forget = %d, want 0", got)
	}
	if _, ok := s.Median("n"); ok {
		t.Fatal("median reported data after Forget")
	}
}

// TestSketchNilSafe pins the contract that lets callers thread an
// optional sketch without nil guards at every site.
func TestSketchNilSafe(t *testing.T) {
	var s *Sketch
	s.Observe("k", time.Second) // must not panic
	s.Forget("k")
	if _, ok := s.Quantile("k", 0.5); ok {
		t.Fatal("nil sketch reported data")
	}
	if s.Samples("k") != 0 || s.Total("k") != 0 {
		t.Fatal("nil sketch reported samples")
	}
}

func TestSketchConcurrent(t *testing.T) {
	s := NewSketch(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("ion%02d", g%4)
			for i := 0; i < 500; i++ {
				s.Observe(key, time.Duration(i)*time.Microsecond)
				s.Quantile(key, 0.9)
				s.Samples(key)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if _, ok := s.Median(fmt.Sprintf("ion%02d", g)); !ok {
			t.Fatalf("key ion%02d lost its samples", g)
		}
	}
}

// refSketch is the sort-a-copy sketch the sorted shadow replaced, kept as
// the reference the property test compares against.
type refSketch struct {
	window int
	rings  map[string][]time.Duration // oldest first, at most window long
}

func (r *refSketch) observe(key string, d time.Duration) {
	w := append(r.rings[key], max(d, 0))
	if len(w) > r.window {
		w = w[1:]
	}
	r.rings[key] = w
}

func (r *refSketch) quantile(key string, q float64) (time.Duration, bool) {
	w := slices.Clone(r.rings[key])
	if len(w) == 0 {
		return 0, false
	}
	slices.Sort(w)
	return w[int(min(max(q, 0), 1)*float64(len(w)-1))], true
}

// TestSketchMatchesSortACopyReference: on random streams over every
// window size, every answer the sketch gives — Quantile at random and
// edge q, Median, Samples, Total, and all of them again after Forget —
// equals the reference that sorts a copy of the window per query.
func TestSketchMatchesSortACopyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	keys := []string{"a", "b", "c"}
	for window := 1; window <= DefaultWindow; window++ {
		s := NewSketch(window)
		ref := &refSketch{window: window, rings: map[string][]time.Duration{}}
		total := map[string]uint64{}
		for step := 0; step < 400; step++ {
			key := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(20); {
			case op == 0:
				s.Forget(key)
				delete(ref.rings, key)
				delete(total, key)
			default:
				// A narrow value range makes duplicates common; negatives
				// exercise the clamp.
				d := time.Duration(rng.Intn(40)-2) * time.Microsecond
				s.Observe(key, d)
				ref.observe(key, d)
				total[key]++
			}
			for _, k := range keys {
				if got, want := s.Samples(k), len(ref.rings[k]); got != want {
					t.Fatalf("window %d step %d: Samples(%s) = %d, want %d", window, step, k, got, want)
				}
				if got := s.Total(k); got != total[k] {
					t.Fatalf("window %d step %d: Total(%s) = %d, want %d", window, step, k, got, total[k])
				}
				for _, q := range []float64{-0.5, 0, 0.5, 0.95, 1, 1.5, rng.Float64()} {
					got, gotOK := s.Quantile(k, q)
					want, wantOK := ref.quantile(k, q)
					if got != want || gotOK != wantOK {
						t.Fatalf("window %d step %d: Quantile(%s, %v) = %v,%v, want %v,%v", window, step, k, q, got, gotOK, want, wantOK)
					}
				}
				got, gotOK := s.Median(k)
				want, wantOK := ref.quantile(k, 0.5)
				if got != want || gotOK != wantOK {
					t.Fatalf("window %d step %d: Median(%s) = %v,%v, want %v,%v", window, step, k, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// BenchmarkSketchObserveQuantile is the pair every hedged span pays.
func BenchmarkSketchObserveQuantile(b *testing.B) {
	s := NewSketch(0)
	for i := 0; i < DefaultWindow; i++ {
		s.Observe("ion00", time.Duration(i)*time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe("ion00", time.Duration(i%97)*time.Microsecond)
		s.Quantile("ion00", 0.95)
	}
}
