package mckp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/perfmodel"
)

func simpleProblem() Problem {
	return Problem{
		Capacity: 5,
		Classes: []Class{
			{Label: "a", Items: []Item{{Weight: 0, Value: 1}, {Weight: 2, Value: 6}, {Weight: 4, Value: 7}}},
			{Label: "b", Items: []Item{{Weight: 0, Value: 2}, {Weight: 1, Value: 3}, {Weight: 3, Value: 9}}},
			{Label: "c", Items: []Item{{Weight: 0, Value: 0}, {Weight: 2, Value: 5}}},
		},
	}
}

func TestSolveDPSimple(t *testing.T) {
	// Optimal: a→(2,6), b→(3,9), c→(0,0): value 15 weight 5.
	sol, err := SolveDP(simpleProblem())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 15 || sol.Weight != 5 {
		t.Fatalf("DP: value=%v weight=%v, want 15/5 (%v)", sol.Value, sol.Weight, sol.Choice)
	}
}

func TestAllSolversAgreeSimple(t *testing.T) {
	p := simpleProblem()
	want, err := SolveExhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveDP(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Value-want.Value) > 1e-9 {
		t.Errorf("dp value %v != exhaustive %v", got.Value, want.Value)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (Problem{}).Validate(); err != ErrNoClasses {
		t.Errorf("no classes: %v", err)
	}
	p := Problem{Capacity: 1, Classes: []Class{{Label: "x"}}}
	if err := p.Validate(); err == nil {
		t.Error("empty class should fail validation")
	}
	p = Problem{Capacity: -1, Classes: []Class{{Label: "x", Items: []Item{{Weight: 0}}}}}
	if err := p.Validate(); err == nil {
		t.Error("negative capacity should fail validation")
	}
	p = Problem{Capacity: 1, Classes: []Class{{Label: "x", Items: []Item{{Weight: -1}}}}}
	if err := p.Validate(); err == nil {
		t.Error("negative weight should fail validation")
	}
	p = Problem{Capacity: 1, Classes: []Class{{Label: "x", Items: []Item{{Weight: 0, Value: math.NaN()}}}}}
	if err := p.Validate(); err == nil {
		t.Error("NaN value should fail validation")
	}
}

// TestValidateClassSizeBound: SolveDP stores item indices as int16, so a
// class larger than maxClassItems is refused up front instead of wrapping
// into a wrong choice; at the bound the last item is still reachable.
func TestValidateClassSizeBound(t *testing.T) {
	for _, tc := range []struct {
		items   int
		wantErr bool
	}{
		{1, false},
		{maxClassItems, false},
		{maxClassItems + 1, true},
		{math.MaxUint16 + 3, true}, // would wrap to a small positive index
	} {
		items := make([]Item, tc.items)
		items[len(items)-1] = Item{Weight: 1, Value: 1} // the only item worth taking
		p := Problem{Capacity: 1, Classes: []Class{{Label: "big", Items: items}}}
		err := p.Validate()
		if (err != nil) != tc.wantErr {
			t.Fatalf("%d items: Validate() = %v, want error %v", tc.items, err, tc.wantErr)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "big") || !strings.Contains(err.Error(), "items") {
				t.Fatalf("%d items: unclear error %q", tc.items, err)
			}
			if _, err := SolveDP(p); err == nil {
				t.Fatalf("%d items: SolveDP accepted an oversized class", tc.items)
			}
			continue
		}
		sol, err := SolveDP(p)
		if err != nil || sol.Choice[0] != tc.items-1 || sol.Value != 1 {
			t.Fatalf("%d items: SolveDP = %+v, %v; want the last item", tc.items, sol, err)
		}
	}
}

func TestInfeasible(t *testing.T) {
	p := Problem{
		Capacity: 1,
		Classes: []Class{
			{Label: "a", Items: []Item{{Weight: 1, Value: 1}}},
			{Label: "b", Items: []Item{{Weight: 1, Value: 1}}},
		},
	}
	for name, solve := range map[string]func(Problem) (Solution, error){
		"dp": SolveDP, "exh": SolveExhaustive,
	} {
		if _, err := solve(p); err != ErrInfeasible {
			t.Errorf("%s: want ErrInfeasible, got %v", name, err)
		}
	}
}

func TestZeroCapacityFeasible(t *testing.T) {
	p := Problem{
		Capacity: 0,
		Classes: []Class{
			{Label: "a", Items: []Item{{Weight: 0, Value: 3}, {Weight: 1, Value: 10}}},
		},
	}
	sol, err := SolveDP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 3 || sol.Weight != 0 {
		t.Fatalf("zero capacity: %+v", sol)
	}
}

func TestSingleClass(t *testing.T) {
	p := Problem{
		Capacity: 8,
		Classes: []Class{
			{Label: "only", Items: []Item{{Weight: 0, Value: 241.3}, {Weight: 2, Value: 48.1}, {Weight: 8, Value: 200}}},
		},
	}
	sol, err := SolveDP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Choice[0] != 0 {
		t.Fatalf("should pick the direct-access item, got %v", sol.Choice)
	}
}

func randomProblem(rng *rand.Rand, maxClasses, maxItems, maxWeight int) Problem {
	k := rng.Intn(maxClasses) + 1
	p := Problem{Capacity: rng.Intn(maxWeight * k)}
	for i := 0; i < k; i++ {
		n := rng.Intn(maxItems) + 1
		c := Class{Label: string(rune('a' + i))}
		for j := 0; j < n; j++ {
			c.Items = append(c.Items, Item{
				Weight: rng.Intn(maxWeight + 1),
				Value:  float64(rng.Intn(1000)),
			})
		}
		p.Classes = append(p.Classes, c)
	}
	return p
}

// TestDPMatchesExhaustiveRandom cross-validates the DP against brute force
// on random instances: many small ones, and fewer wide ones (up to six
// classes of five items, 15,625 combinations).
func TestDPMatchesExhaustiveRandom(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		seed                            int64
		trials                          int
		maxClasses, maxItems, maxWeight int
	}{
		{"small", 1, 300, 5, 4, 6},
		{"wide", 2, 40, 6, 5, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			for trial := 0; trial < tc.trials; trial++ {
				p := randomProblem(rng, tc.maxClasses, tc.maxItems, tc.maxWeight)
				want, errE := SolveExhaustive(p)
				got, errD := SolveDP(p)
				if (errE == nil) != (errD == nil) {
					t.Fatalf("trial %d: error mismatch exh=%v dp=%v (%+v)", trial, errE, errD, p)
				}
				if errE != nil {
					continue
				}
				if math.Abs(want.Value-got.Value) > 1e-9 {
					t.Fatalf("trial %d: dp value %v != exhaustive %v (%+v)", trial, got.Value, want.Value, p)
				}
			}
		})
	}
}

// TestDPMonotoneInCapacity: the optimum value never decreases as the
// capacity grows.
func TestDPMonotoneInCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 6, 4, 6)
		// Ensure feasibility at capacity 0 by adding a zero-weight item.
		for i := range p.Classes {
			p.Classes[i].Items = append(p.Classes[i].Items, Item{Weight: 0, Value: 0})
		}
		prev := math.Inf(-1)
		for w := 0; w <= 30; w += 3 {
			p.Capacity = w
			sol, err := SolveDP(p)
			if err != nil {
				t.Fatalf("trial %d w=%d: %v", trial, w, err)
			}
			if sol.Value < prev-1e-9 {
				t.Fatalf("trial %d: optimum decreased from %v to %v at w=%d", trial, prev, sol.Value, w)
			}
			prev = sol.Value
		}
	}
}

// TestDPChoosesOnePerClass is the structural MCKP invariant, checked via
// testing/quick over random instances.
func TestDPChoosesOnePerClass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		p := randomProblem(rand.New(rand.NewSource(seed^rng.Int63())), 6, 5, 6)
		sol, err := SolveDP(p)
		if err != nil {
			return err == ErrInfeasible
		}
		if len(sol.Choice) != len(p.Classes) {
			return false
		}
		for i, j := range sol.Choice {
			if j < 0 || j >= len(p.Classes[i].Items) {
				return false
			}
		}
		return sol.Weight <= p.Capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDPMatchesExhaustiveOnPaperCurves: on the §5.2 six applications'
// measured curves the DP finds the brute-force optimum at every pool size
// from none to all of the I/O nodes any of them can use.
func TestDPMatchesExhaustiveOnPaperCurves(t *testing.T) {
	var p Problem
	for _, a := range perfmodel.SectionFiveTwoApps() {
		c := Class{Label: a.Label}
		for _, pt := range a.Curve.Points() {
			c.Items = append(c.Items, Item{Weight: pt.IONs, Value: pt.Bandwidth.MBps()})
		}
		p.Classes = append(p.Classes, c)
	}
	for p.Capacity = 0; p.Capacity <= 48; p.Capacity++ {
		want, errE := SolveExhaustive(p)
		got, errD := SolveDP(p)
		if errE != nil || errD != nil {
			t.Fatalf("%d IONs: exh=%v dp=%v", p.Capacity, errE, errD)
		}
		if math.Abs(want.Value-got.Value) > 1e-9 {
			t.Fatalf("%d IONs: dp %v MB/s != exhaustive %v MB/s", p.Capacity, got.Value, want.Value)
		}
	}
}

// TestPaperScaleInstance: the §5.3 sizing example — 512 concurrent jobs and
// 256 I/O nodes — must solve exactly and quickly (the paper reports 2.7 s;
// the DP here is far faster, see BenchmarkSolveDPPaperScale).
func TestPaperScaleInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Problem{Capacity: 256}
	for i := 0; i < 512; i++ {
		c := Class{Label: "job"}
		for _, w := range []int{0, 1, 2, 4, 8} {
			c.Items = append(c.Items, Item{Weight: w, Value: rng.Float64() * 5000})
		}
		p.Classes = append(p.Classes, c)
	}
	sol, err := SolveDP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Weight > 256 {
		t.Fatalf("overweight: %d", sol.Weight)
	}
	// Sanity: with capacity for one node per two jobs, value must beat
	// the all-zero baseline.
	baseline := 0.0
	for _, c := range p.Classes {
		baseline += c.Items[0].Value
	}
	if sol.Value <= baseline {
		t.Fatalf("DP value %v not above zero-alloc baseline %v", sol.Value, baseline)
	}
}

// TestHugeCapacityClamped: a pool far larger than any possible allocation
// must not blow up the DP (capacity is clamped to the sum of per-class
// maximum weights) and must yield the per-class maxima.
func TestHugeCapacityClamped(t *testing.T) {
	p := Problem{
		Capacity: 1_000_000_000,
		Classes: []Class{
			{Label: "a", Items: []Item{{Weight: 0, Value: 1}, {Weight: 8, Value: 10}}},
			{Label: "b", Items: []Item{{Weight: 2, Value: 5}, {Weight: 4, Value: 7}}},
		},
	}
	start := time.Now()
	sol, err := SolveDP(p)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("huge capacity not clamped: took %v", elapsed)
	}
	if sol.Value != 17 {
		t.Fatalf("value = %v, want 17", sol.Value)
	}
}
