// Package mckp solves the Multiple-Choice Knapsack Problem the paper's
// arbitration policy is built on (§3.1): items are grouped into classes,
// exactly one item must be chosen from each class, the total weight must not
// exceed the capacity, and the total value is maximized.
//
// In the I/O-node allocation instance, each class is a ready-to-run
// application, an item is "run with w I/O nodes" (weight w), and the item's
// value is the bandwidth the application achieves with that many I/O nodes.
//
// The package provides four interchangeable solvers:
//
//   - SolveDP: the exact pseudo-polynomial dynamic program the paper uses,
//     O(W·ΣNᵢ) time, O(W·k) space.
//   - SolveBranchBound: exact depth-first search with a fractional upper
//     bound; competitive when the capacity is large but classes are few.
//   - SolveGreedy: the classic incremental-efficiency heuristic (start at
//     each class's lightest item, repeatedly apply the best marginal
//     upgrade). Not exact; used as an ablation baseline.
//   - SolveExhaustive: brute force over all combinations, for
//     cross-validation on small instances.
package mckp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Item is one choice within a class.
type Item struct {
	// Weight is the capacity consumed if this item is chosen (I/O nodes).
	Weight int
	// Value is the profit of choosing this item (bandwidth).
	Value float64
}

// Class is a group of items from which exactly one must be chosen.
type Class struct {
	// Label identifies the class (the application ID) in solutions and
	// error messages.
	Label string
	// Items are the class's choices. Order is preserved in Solution.Choice.
	Items []Item
}

// Problem is a complete MCKP instance.
type Problem struct {
	Classes  []Class
	Capacity int
}

// Solution is a feasible assignment of one item per class.
type Solution struct {
	// Choice[i] is the index into Classes[i].Items of the chosen item.
	Choice []int
	// Value is the total value of the chosen items.
	Value float64
	// Weight is the total weight of the chosen items.
	Weight int
}

// Errors returned by the solvers.
var (
	ErrNoClasses  = errors.New("mckp: problem has no classes")
	ErrEmptyClass = errors.New("mckp: class has no items")
	ErrInfeasible = errors.New("mckp: no feasible assignment fits the capacity")
)

// maxClassItems bounds a class's size: SolveDP records a chosen item's
// index as an int16.
const maxClassItems = math.MaxInt16

// Validate checks structural well-formedness: at least one class, no empty
// or oversized (> maxClassItems) classes, non-negative weights, and a
// non-negative capacity.
func (p Problem) Validate() error {
	if len(p.Classes) == 0 {
		return ErrNoClasses
	}
	if p.Capacity < 0 {
		return fmt.Errorf("mckp: negative capacity %d", p.Capacity)
	}
	for i, c := range p.Classes {
		if len(c.Items) == 0 {
			return fmt.Errorf("%w: class %d (%q)", ErrEmptyClass, i, c.Label)
		}
		if len(c.Items) > maxClassItems {
			return fmt.Errorf("mckp: class %d (%q) has %d items, more than the %d a solver can index",
				i, c.Label, len(c.Items), maxClassItems)
		}
		for j, it := range c.Items {
			if it.Weight < 0 {
				return fmt.Errorf("mckp: class %d (%q) item %d has negative weight %d",
					i, c.Label, j, it.Weight)
			}
			if math.IsNaN(it.Value) || math.IsInf(it.Value, 0) {
				return fmt.Errorf("mckp: class %d (%q) item %d has non-finite value",
					i, c.Label, j)
			}
		}
	}
	return nil
}

// minWeights returns the per-class minimum item weight and their sum.
func (p Problem) minWeights() (mins []int, total int) {
	mins = make([]int, len(p.Classes))
	for i, c := range p.Classes {
		m := c.Items[0].Weight
		for _, it := range c.Items[1:] {
			if it.Weight < m {
				m = it.Weight
			}
		}
		mins[i] = m
		total += m
	}
	return mins, total
}

// verify re-checks a candidate solution (defence in depth for the solvers).
func (p Problem) verify(s Solution) error {
	if len(s.Choice) != len(p.Classes) {
		return fmt.Errorf("mckp: solution has %d choices for %d classes", len(s.Choice), len(p.Classes))
	}
	w, v := 0, 0.0
	for i, j := range s.Choice {
		if j < 0 || j >= len(p.Classes[i].Items) {
			return fmt.Errorf("mckp: choice %d out of range for class %d", j, i)
		}
		w += p.Classes[i].Items[j].Weight
		v += p.Classes[i].Items[j].Value
	}
	if w > p.Capacity {
		return fmt.Errorf("mckp: solution weight %d exceeds capacity %d", w, p.Capacity)
	}
	if w != s.Weight || math.Abs(v-s.Value) > 1e-6*(1+math.Abs(v)) {
		return fmt.Errorf("mckp: solution totals inconsistent (w=%d/%d v=%g/%g)", w, s.Weight, v, s.Value)
	}
	return nil
}

// SolveDP solves the problem exactly with the pseudo-polynomial dynamic
// program described in §3.1 of the paper: states are (class prefix, weight),
// and each class contributes one chosen item. Complexity O(W·ΣNᵢ).
func SolveDP(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	// Capacity beyond the sum of per-class maximum weights is never
	// usable; clamping keeps the DP pseudo-polynomial in the *useful*
	// capacity (an ORACLE-sized pool costs no more than a saturated one).
	minTotal, maxTotal := 0, 0
	for _, c := range p.Classes {
		lo, hi := c.Items[0].Weight, c.Items[0].Weight
		for _, it := range c.Items[1:] {
			lo, hi = min(lo, it.Weight), max(hi, it.Weight)
		}
		minTotal += lo
		maxTotal += hi
	}
	if minTotal > p.Capacity {
		return Solution{}, ErrInfeasible
	}
	const unset = -1
	k := len(p.Classes)
	W := min(p.Capacity, maxTotal)

	// dp[w] holds the best value achievable using the classes processed
	// so far with total weight exactly ≤ w tracked as "best at w".
	// Row i of the flat choice table holds the item class i picked to reach
	// state weight w; the state before it is w less that item's weight.
	cols := W + 1
	choice := make([]int16, k*cols)
	vals := make([]float64, 2*cols)
	dp, next := vals[:cols], vals[cols:]
	flags := make([]bool, 2*cols)
	reach, nextReach := flags[:cols], flags[cols:]
	reach[0] = true

	for i, c := range p.Classes {
		row := choice[i*cols : (i+1)*cols]
		clear(next)
		clear(nextReach)
		for w := range row {
			row[w] = unset
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
					row[nw] = int16(j)
				}
			}
		}
		dp, next = next, dp
		reach, nextReach = nextReach, reach
	}

	// Find the best final state.
	bestW, found := 0, false
	for w := 0; w <= W; w++ {
		if reach[w] && (!found || dp[w] > dp[bestW]) {
			bestW, found = w, true
		}
	}
	if !found {
		return Solution{}, ErrInfeasible
	}

	// Reconstruct choices class by class.
	sol := Solution{Choice: make([]int, k), Value: dp[bestW], Weight: 0}
	w := bestW
	for i := k - 1; i >= 0; i-- {
		j := choice[i*cols+w]
		if j == unset {
			return Solution{}, fmt.Errorf("mckp: internal reconstruction failure at class %d weight %d", i, w)
		}
		sol.Choice[i] = int(j)
		sol.Weight += p.Classes[i].Items[j].Weight
		w -= p.Classes[i].Items[j].Weight
	}
	if err := p.verify(sol); err != nil {
		return Solution{}, err
	}
	return sol, nil
}

// SolveExhaustive enumerates every combination. It is exponential and
// intended only for cross-validating other solvers on small instances.
func SolveExhaustive(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	var (
		best      Solution
		bestFound bool
		cur       = make([]int, len(p.Classes))
	)
	var rec func(i, weight int, value float64)
	rec = func(i, weight int, value float64) {
		if weight > p.Capacity {
			return
		}
		if i == len(p.Classes) {
			if !bestFound || value > best.Value {
				best = Solution{Choice: append([]int(nil), cur...), Value: value, Weight: weight}
				bestFound = true
			}
			return
		}
		for j, it := range p.Classes[i].Items {
			cur[i] = j
			rec(i+1, weight+it.Weight, value+it.Value)
		}
	}
	rec(0, 0, 0)
	if !bestFound {
		return Solution{}, ErrInfeasible
	}
	if err := p.verify(best); err != nil {
		return Solution{}, err
	}
	return best, nil
}

// SolveGreedy starts every class at its lightest (tie: most valuable) item
// and repeatedly applies the single upgrade with the best positive marginal
// efficiency Δvalue/Δweight that still fits. It is fast and typically close
// to optimal, but not exact — kept as the ablation baseline for the DP.
func SolveGreedy(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	mins, minTotal := p.minWeights()
	if minTotal > p.Capacity {
		return Solution{}, ErrInfeasible
	}

	sol := Solution{Choice: make([]int, len(p.Classes))}
	for i, c := range p.Classes {
		bestJ := -1
		for j, it := range c.Items {
			if it.Weight != mins[i] {
				continue
			}
			if bestJ == -1 || it.Value > c.Items[bestJ].Value {
				bestJ = j
			}
		}
		sol.Choice[i] = bestJ
		sol.Weight += c.Items[bestJ].Weight
		sol.Value += c.Items[bestJ].Value
	}

	for {
		bestClass, bestItem := -1, -1
		bestEff := 0.0
		for i, c := range p.Classes {
			cur := c.Items[sol.Choice[i]]
			for j, it := range c.Items {
				dw := it.Weight - cur.Weight
				dv := it.Value - cur.Value
				if dv <= 0 || sol.Weight+dw > p.Capacity {
					continue
				}
				var eff float64
				if dw <= 0 {
					// Strictly better at no extra weight: take immediately.
					eff = math.Inf(1)
				} else {
					eff = dv / float64(dw)
				}
				if eff > bestEff {
					bestEff, bestClass, bestItem = eff, i, j
				}
			}
		}
		if bestClass < 0 {
			break
		}
		cur := p.Classes[bestClass].Items[sol.Choice[bestClass]]
		it := p.Classes[bestClass].Items[bestItem]
		sol.Weight += it.Weight - cur.Weight
		sol.Value += it.Value - cur.Value
		sol.Choice[bestClass] = bestItem
	}
	if err := p.verify(sol); err != nil {
		return Solution{}, err
	}
	return sol, nil
}

// SolveBranchBound solves the problem exactly with depth-first search over
// classes ordered by decreasing value spread, pruned by an optimistic bound
// (each remaining class contributes its maximum value regardless of
// weight, as long as its minimum weight still fits).
func SolveBranchBound(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	mins, minTotal := p.minWeights()
	if minTotal > p.Capacity {
		return Solution{}, ErrInfeasible
	}

	k := len(p.Classes)
	// Process classes in decreasing max-min value spread so impactful
	// decisions come first and the bound tightens quickly.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	spread := make([]float64, k)
	maxVal := make([]float64, k)
	for i, c := range p.Classes {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, it := range c.Items {
			lo = math.Min(lo, it.Value)
			hi = math.Max(hi, it.Value)
		}
		spread[i] = hi - lo
		maxVal[i] = hi
	}
	sort.Slice(order, func(a, b int) bool { return spread[order[a]] > spread[order[b]] })

	// Suffix sums over the processing order for bounding.
	sufMaxVal := make([]float64, k+1)
	sufMinW := make([]int, k+1)
	for i := k - 1; i >= 0; i-- {
		sufMaxVal[i] = sufMaxVal[i+1] + maxVal[order[i]]
		sufMinW[i] = sufMinW[i+1] + mins[order[i]]
	}

	best := Solution{Choice: make([]int, k), Value: math.Inf(-1)}
	cur := make([]int, k)
	var rec func(pos, weight int, value float64)
	rec = func(pos, weight int, value float64) {
		if weight+sufMinW[pos] > p.Capacity {
			return // cannot even fit the lightest remaining items
		}
		if value+sufMaxVal[pos] <= best.Value {
			return // optimistic bound cannot beat the incumbent
		}
		if pos == k {
			best.Value = value
			best.Weight = weight
			copy(best.Choice, cur)
			return
		}
		ci := order[pos]
		// Try items in decreasing value so good incumbents appear early.
		idx := byValueDesc(p.Classes[ci].Items)
		for _, j := range idx {
			it := p.Classes[ci].Items[j]
			cur[ci] = j
			rec(pos+1, weight+it.Weight, value+it.Value)
		}
	}
	rec(0, 0, 0)
	if math.IsInf(best.Value, -1) {
		return Solution{}, ErrInfeasible
	}
	if err := p.verify(best); err != nil {
		return Solution{}, err
	}
	return best, nil
}

func byValueDesc(items []Item) []int {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return items[idx[a]].Value > items[idx[b]].Value })
	return idx
}
