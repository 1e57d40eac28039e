// Package mckp solves the Multiple-Choice Knapsack Problem the paper's
// arbitration policy is built on (§3.1): items are grouped into classes,
// exactly one item must be chosen from each class, the total weight must not
// exceed the capacity, and the total value is maximized.
//
// In the I/O-node allocation instance, each class is a ready-to-run
// application, an item is "run with w I/O nodes" (weight w), and the item's
// value is the bandwidth the application achieves with that many I/O nodes.
//
// SolveDP is the solver: the exact pseudo-polynomial dynamic program the
// paper uses, O(W·ΣNᵢ) time, O(W·k) space. SolveExhaustive, brute force over
// all combinations, is its cross-validation oracle on small instances.
package mckp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
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

// tables is SolveDP's working memory, pooled across solves and the
// goroutines solving in parallel.
type tables struct {
	choice []int16
	vals   []float64
	flags  []bool
}

var tablePool = sync.Pool{New: func() any { return new(tables) }}

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
	// The tables come from tablePool: only the returned Choice is new.
	cols := W + 1
	t := tablePool.Get().(*tables)
	defer tablePool.Put(t)
	choice := slices.Grow(t.choice[:0], k*cols)[:k*cols]
	vals := slices.Grow(t.vals[:0], 2*cols)[:2*cols]
	dp, next := vals[:cols], vals[cols:]
	flags := slices.Grow(t.flags[:0], 2*cols)[:2*cols]
	reach, nextReach := flags[:cols], flags[cols:]
	t.choice, t.vals, t.flags = choice, vals, flags
	clear(reach)
	reach[0], dp[0] = true, 0

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
// intended only for cross-validating SolveDP on small instances.
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
