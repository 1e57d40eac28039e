package mckp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/testkit"
)

// solveDPReference is SolveDP as it was before its tables went flat: two
// freshly allocated rows per class. It is kept only as the differential
// oracle that pins the flat solver's choices and tie-breaking.
func solveDPReference(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if p.minWeights() > p.Capacity {
		return Solution{}, ErrInfeasible
	}

	const unset = -1
	k := len(p.Classes)
	W := p.Capacity
	maxTotal := 0
	for _, c := range p.Classes {
		classMax := 0
		for _, it := range c.Items {
			if it.Weight > classMax {
				classMax = it.Weight
			}
		}
		maxTotal += classMax
	}
	if maxTotal < W {
		W = maxTotal
	}

	dp := make([]float64, W+1)
	reach := make([]bool, W+1)
	reach[0] = true
	choice := make([][]int16, k)
	from := make([][]int32, k)

	next := make([]float64, W+1)
	nextReach := make([]bool, W+1)

	for i, c := range p.Classes {
		choice[i] = make([]int16, W+1)
		from[i] = make([]int32, W+1)
		for w := range next {
			next[w] = 0
			nextReach[w] = false
			choice[i][w] = unset
			from[i][w] = unset
		}
		for w := 0; w <= W; w++ {
			if !reach[w] {
				continue
			}
			base := dp[w]
			for j, it := range c.Items {
				nw := w + it.Weight
				if nw > W {
					continue
				}
				nv := base + it.Value
				if !nextReach[nw] || nv > next[nw] {
					nextReach[nw] = true
					next[nw] = nv
					choice[i][nw] = int16(j)
					from[i][nw] = int32(w)
				}
			}
		}
		dp, next = next, dp
		reach, nextReach = nextReach, reach
	}

	bestW, found := 0, false
	for w := 0; w <= W; w++ {
		if reach[w] && (!found || dp[w] > dp[bestW]) {
			bestW, found = w, true
		}
	}
	if !found {
		return Solution{}, ErrInfeasible
	}

	sol := Solution{Choice: make([]int, k), Value: dp[bestW], Weight: 0}
	w := bestW
	for i := k - 1; i >= 0; i-- {
		j := choice[i][w]
		if j == unset {
			return Solution{}, fmt.Errorf("mckp: internal reconstruction failure at class %d weight %d", i, w)
		}
		sol.Choice[i] = int(j)
		w = int(from[i][w])
	}
	for i, j := range sol.Choice {
		sol.Weight += p.Classes[i].Items[j].Weight
	}
	if err := p.verify(sol); err != nil {
		return Solution{}, err
	}
	return sol, nil
}

// minWeights returns the sum of the per-class minimum item weights.
func (p Problem) minWeights() (total int) {
	for _, c := range p.Classes {
		m := c.Items[0].Weight
		for _, it := range c.Items[1:] {
			m = min(m, it.Weight)
		}
		total += m
	}
	return total
}

// sameAsReference fails unless SolveDP and the reference agree exactly on
// p: the same error, the same Choice, a bit-equal Value and the same Weight.
func sameAsReference(t *testing.T, name string, p Problem) {
	t.Helper()
	want, errW := solveDPReference(p)
	got, errG := SolveDP(p)
	if fmt.Sprint(errW) != fmt.Sprint(errG) {
		t.Fatalf("%s: error %v, reference %v", name, errG, errW)
	}
	if errW != nil {
		return
	}
	if fmt.Sprint(got.Choice) != fmt.Sprint(want.Choice) ||
		math.Float64bits(got.Value) != math.Float64bits(want.Value) || got.Weight != want.Weight {
		t.Fatalf("%s: got %+v, reference %+v (%+v)", name, got, want, p)
	}
}

// TestSolveDPMatchesReferenceRandom: 2,400 seeded problems, with values
// drawn from a small set so equal-value ties are common and tie-breaking is
// exercised, plus continuous values and zero capacities.
func TestSolveDPMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2400; trial++ {
		p := randomProblem(rng, 10, 6, 9)
		for i := range p.Classes {
			for j := range p.Classes[i].Items {
				switch trial % 3 {
				case 0:
					p.Classes[i].Items[j].Value = float64(rng.Intn(4))
				case 1:
					p.Classes[i].Items[j].Value = rng.Float64() * 5000
				}
			}
		}
		if trial%50 == 0 {
			p.Capacity = 0
		}
		sameAsReference(t, fmt.Sprintf("trial %d", trial), p)
	}
}

// TestSolveDPMatchesReferenceSurvey runs both solvers over MCKP instances
// built from the 189-scenario survey curves: windows of 1 to 8 consecutive
// scenarios at every pool size from 0 to 16.
func TestSolveDPMatchesReferenceSurvey(t *testing.T) {
	curves := perfmodel.Default().SurveyCurves()
	if len(curves) != 189 {
		t.Fatalf("survey has %d curves, want 189", len(curves))
	}
	classOf := func(i int) Class {
		c := Class{Label: fmt.Sprint(i)}
		for _, pt := range curves[i].Points() {
			c.Items = append(c.Items, Item{Weight: pt.IONs, Value: pt.Bandwidth.MBps()})
		}
		return c
	}
	for start := range curves {
		for k := 1; k <= 8; k++ {
			var classes []Class
			for i := 0; i < k; i++ {
				classes = append(classes, classOf((start+i)%len(curves)))
			}
			for pool := 0; pool <= 16; pool++ {
				sameAsReference(t, fmt.Sprintf("scenarios %d..+%d pool %d", start, k, pool),
					Problem{Classes: classes, Capacity: pool})
			}
		}
	}
}

// TestSolveDPAllocationsFlatInClasses: in steady state a solve allocates
// only the Choice it returns, at 2 classes and at 64 — the tables are
// flat and come from the pool.
func TestSolveDPAllocationsFlatInClasses(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	solve := func(k int) float64 {
		p := Problem{Capacity: 12}
		for i := 0; i < k; i++ {
			p.Classes = append(p.Classes, Class{Items: []Item{{0, 1}, {1, 3}, {2, 5}, {4, 8}, {8, 9}}})
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := SolveDP(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if two, sixtyFour := solve(2), solve(64); two > 1 || sixtyFour > 1 {
		t.Fatalf("SolveDP allocates %v objects for 2 classes and %v for 64, want ≤ 1 (the returned Choice)", two, sixtyFour)
	}
}

// TestSolveDPPooledScratchConcurrent: 8 goroutines solving at once, each
// through the problems from its own starting point, still match the
// reference exactly. The problems vary in class count and capacity, so
// the tables a solve takes from the pool were last sized for another
// problem. Run it under -race.
func TestSolveDPPooledScratchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	probs := make([]Problem, 300)
	want := make([]string, len(probs))
	for i := range probs {
		probs[i] = randomProblem(rng, 1+i%16, 6, 1+i%13)
		sol, err := solveDPReference(probs[i])
		want[i] = fmt.Sprint(sol.Choice, math.Float64bits(sol.Value), sol.Weight, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range probs {
				i := (g*len(probs)/8 + j) % len(probs)
				sol, err := SolveDP(probs[i])
				if got := fmt.Sprint(sol.Choice, math.Float64bits(sol.Value), sol.Weight, err); got != want[i] {
					t.Errorf("goroutine %d, problem %d: got %s, reference %s", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
