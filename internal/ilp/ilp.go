// Package ilp implements a 0/1 integer linear programming solver used for
// claim-batch selection (paper Definition 9 / Theorem 8). It substitutes the
// Gurobi solver of the authors' implementation (see the README's
// "Package map").
//
// The model form is:
//
//	maximize    sum_j c_j x_j
//	subject to  sum_j a_ij x_j  (<=|>=|=)  b_i   for each constraint i
//	            x_j in {0, 1}
//
// The solver is branch-and-bound:
//
//   - the upper bound at each node is min over <=-constraints of a
//     fractional (LP) knapsack relaxation restricted to that constraint,
//     plus the sum of remaining positive objective coefficients for
//     unconstrained variables — a valid, cheap bound;
//   - a greedy rounding pass provides the initial incumbent (warm start);
//   - node and time budgets make the solver anytime: when exhausted it
//     returns the best incumbent with Optimal=false, matching how a
//     commercial solver is used with a time limit.
//
// Infeasibility of >=/= constraints is detected through propagation at each
// node; the solver is exact when budgets are not exhausted.
package ilp

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sense is a constraint direction.
type Sense int

const (
	LE Sense = iota // sum <= b
	GE              // sum >= b
	EQ              // sum == b
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Term is one coefficient in a constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is one linear row.
type Constraint struct {
	Name  string
	Terms []Term
	Sense Sense
	RHS   float64
}

// Model is a 0/1 ILP instance.
type Model struct {
	names       []string
	objective   []float64
	constraints []Constraint
}

// NewModel creates an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a binary variable with the given objective coefficient and
// returns its index.
func (m *Model) AddVar(name string, objCoeff float64) int {
	m.names = append(m.names, name)
	m.objective = append(m.objective, objCoeff)
	return len(m.names) - 1
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.names) }

// VarName returns the name of variable j.
func (m *Model) VarName(j int) string { return m.names[j] }

// AddConstraint appends a linear row; it validates variable indexes.
func (m *Model) AddConstraint(c Constraint) error {
	for _, t := range c.Terms {
		if t.Var < 0 || t.Var >= len(m.names) {
			return fmt.Errorf("ilp: constraint %q references unknown variable %d", c.Name, t.Var)
		}
	}
	m.constraints = append(m.constraints, c)
	return nil
}

// Options bounds solver effort.
type Options struct {
	// MaxNodes caps branch-and-bound nodes (default 200000).
	MaxNodes int
	// TimeLimit caps wall-clock solve time (default 5s).
	TimeLimit time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	if o.TimeLimit <= 0 {
		o.TimeLimit = 5 * time.Second
	}
	return o
}

// Solution is the solver output.
type Solution struct {
	// X holds the chosen 0/1 assignment.
	X []bool
	// Objective is the achieved objective value.
	Objective float64
	// Optimal reports whether the solver proved optimality (budgets not
	// exhausted).
	Optimal bool
	// Feasible reports whether any feasible assignment was found.
	Feasible bool
	// Nodes is the number of explored branch-and-bound nodes.
	Nodes int
}

// Solve runs branch and bound.
func (m *Model) Solve(opt Options) Solution {
	opt = opt.withDefaults()
	n := len(m.names)
	if n == 0 {
		return Solution{Optimal: true, Feasible: m.allConstraintsHoldEmpty(), X: nil}
	}

	s := &solver{
		m:        m,
		opt:      opt,
		deadline: time.Now().Add(opt.TimeLimit),
		best:     Solution{Objective: math.Inf(-1)},
	}

	// Warm start with greedy rounding.
	if x, obj, ok := m.greedy(); ok {
		s.best = Solution{X: x, Objective: obj, Feasible: true}
	}

	// Branch order: descending |objective| puts influential variables
	// first, improving pruning.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		oa, ob := math.Abs(m.objective[order[a]]), math.Abs(m.objective[order[b]])
		if oa != ob {
			return oa > ob
		}
		return order[a] < order[b]
	})

	assign := make([]int8, n) // -1 = 0, +1 = 1, 0 = free
	s.branch(order, 0, assign, 0)

	out := s.best
	out.Nodes = s.nodes
	out.Optimal = !s.budgetExhausted && out.Feasible
	if !out.Feasible {
		// Even with budget left, exhaustive search may prove
		// infeasibility.
		out.Optimal = false
		out.Objective = 0
	}
	return out
}

func (m *Model) allConstraintsHoldEmpty() bool {
	for _, c := range m.constraints {
		if !senseHolds(0, c.Sense, c.RHS) {
			return false
		}
	}
	return true
}

func senseHolds(lhs float64, s Sense, rhs float64) bool {
	const eps = 1e-9
	switch s {
	case LE:
		return lhs <= rhs+eps
	case GE:
		return lhs >= rhs-eps
	case EQ:
		return math.Abs(lhs-rhs) <= eps
	}
	return false
}

// feasibleComplete checks a full assignment.
func (m *Model) feasibleComplete(x []bool) bool {
	for _, c := range m.constraints {
		var lhs float64
		for _, t := range c.Terms {
			if x[t.Var] {
				lhs += t.Coeff
			}
		}
		if !senseHolds(lhs, c.Sense, c.RHS) {
			return false
		}
	}
	return true
}

// objectiveOf computes the objective of a full assignment.
func (m *Model) objectiveOf(x []bool) float64 {
	var v float64
	for j, on := range x {
		if on {
			v += m.objective[j]
		}
	}
	return v
}

// greedy builds a warm-start incumbent: take variables in descending
// objective-coefficient order, keeping a partial assignment that can still
// satisfy every constraint (checking LE rows directly and GE/EQ rows
// optimistically), then verify the final assignment.
func (m *Model) greedy() ([]bool, float64, bool) {
	n := len(m.names)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if m.objective[order[a]] != m.objective[order[b]] {
			return m.objective[order[a]] > m.objective[order[b]]
		}
		return order[a] < order[b]
	})
	x := make([]bool, n)
	for _, j := range order {
		if m.objective[j] < 0 {
			break
		}
		x[j] = true
		if !m.partialCanSatisfy(x) {
			x[j] = false
		}
	}
	// Repair GE/EQ rows: turn on cheapest remaining variables that help.
	for pass := 0; pass < n; pass++ {
		deficit := m.firstDeficitRow(x)
		if deficit < 0 {
			break
		}
		c := m.constraints[deficit]
		bestJ, bestCost := -1, math.Inf(1)
		for _, t := range c.Terms {
			if !x[t.Var] && t.Coeff > 0 {
				cost := -m.objective[t.Var] / t.Coeff
				if cost < bestCost {
					bestJ, bestCost = t.Var, cost
				}
			}
		}
		if bestJ < 0 {
			break
		}
		x[bestJ] = true
		if !m.partialCanSatisfy(x) {
			x[bestJ] = false
			break
		}
	}
	if m.feasibleComplete(x) {
		return x, m.objectiveOf(x), true
	}
	// Try the empty assignment as a last resort.
	zero := make([]bool, n)
	if m.feasibleComplete(zero) {
		return zero, 0, true
	}
	return nil, 0, false
}

// partialCanSatisfy treats x as a complete candidate for LE rows (whatever
// is on counts) and optimistically for GE/EQ rows (everything not on could
// still be turned on).
func (m *Model) partialCanSatisfy(x []bool) bool {
	for _, c := range m.constraints {
		var on, potential float64
		for _, t := range c.Terms {
			if x[t.Var] {
				on += t.Coeff
			} else if t.Coeff > 0 {
				potential += t.Coeff
			}
		}
		switch c.Sense {
		case LE:
			if on > c.RHS+1e-9 {
				return false
			}
		case GE:
			if on+potential < c.RHS-1e-9 {
				return false
			}
		case EQ:
			if on > c.RHS+1e-9 || on+potential < c.RHS-1e-9 {
				return false
			}
		}
	}
	return true
}

func (m *Model) firstDeficitRow(x []bool) int {
	for i, c := range m.constraints {
		if c.Sense != GE && c.Sense != EQ {
			continue
		}
		var lhs float64
		for _, t := range c.Terms {
			if x[t.Var] {
				lhs += t.Coeff
			}
		}
		if lhs < c.RHS-1e-9 {
			return i
		}
	}
	return -1
}

type solver struct {
	m               *Model
	opt             Options
	deadline        time.Time
	best            Solution
	nodes           int
	budgetExhausted bool
}

// branch explores assignments over order[depth:]; assign holds fixed values.
func (s *solver) branch(order []int, depth int, assign []int8, fixedObj float64) {
	if s.budgetExhausted {
		return
	}
	s.nodes++
	if s.nodes > s.opt.MaxNodes || (s.nodes%1024 == 0 && time.Now().After(s.deadline)) {
		s.budgetExhausted = true
		return
	}

	// Propagation: partial assignment must still admit a feasible
	// completion.
	if !s.partialFeasible(assign) {
		return
	}

	// Bound: fixed objective + optimistic completion.
	if ub := fixedObj + s.upperBound(order, depth, assign); ub <= s.best.Objective+1e-9 && s.best.Feasible {
		return
	}

	if depth == len(order) {
		x := make([]bool, len(assign))
		for j, a := range assign {
			x[j] = a > 0
		}
		if s.m.feasibleComplete(x) {
			obj := s.m.objectiveOf(x)
			if !s.best.Feasible || obj > s.best.Objective {
				s.best = Solution{X: x, Objective: obj, Feasible: true}
			}
		}
		return
	}

	j := order[depth]
	// Try the more promising value first.
	first, second := int8(1), int8(-1)
	if s.m.objective[j] < 0 {
		first, second = -1, 1
	}
	for _, v := range [2]int8{first, second} {
		assign[j] = v
		add := 0.0
		if v > 0 {
			add = s.m.objective[j]
		}
		s.branch(order, depth+1, assign, fixedObj+add)
		if s.budgetExhausted {
			assign[j] = 0
			return
		}
	}
	assign[j] = 0
}

// partialFeasible checks whether the partial assignment can still satisfy
// every constraint, assuming free variables take whichever value helps.
func (s *solver) partialFeasible(assign []int8) bool {
	for _, c := range s.m.constraints {
		var lo, hi float64 // achievable range of lhs
		for _, t := range c.Terms {
			switch {
			case assign[t.Var] > 0:
				lo += t.Coeff
				hi += t.Coeff
			case assign[t.Var] == 0:
				if t.Coeff > 0 {
					hi += t.Coeff
				} else {
					lo += t.Coeff
				}
			}
		}
		switch c.Sense {
		case LE:
			if lo > c.RHS+1e-9 {
				return false
			}
		case GE:
			if hi < c.RHS-1e-9 {
				return false
			}
		case EQ:
			if lo > c.RHS+1e-9 || hi < c.RHS-1e-9 {
				return false
			}
		}
	}
	return true
}

// upperBound returns an optimistic objective contribution of the free
// variables: the minimum over LE constraints of a fractional knapsack bound,
// intersected with the trivially positive sum.
func (s *solver) upperBound(order []int, depth int, assign []int8) float64 {
	// Trivial bound: sum of positive coefficients of free variables.
	var trivial float64
	for _, j := range order[depth:] {
		if assign[j] == 0 && s.m.objective[j] > 0 {
			trivial += s.m.objective[j]
		}
	}
	bound := trivial
	// Fractional knapsack per LE constraint with all-positive
	// coefficients over the free, positive-objective variables.
	for _, c := range s.m.constraints {
		if c.Sense != LE {
			continue
		}
		budget := c.RHS
		covered := make(map[int]float64, len(c.Terms))
		valid := true
		for _, t := range c.Terms {
			if t.Coeff < 0 {
				valid = false
				break
			}
			if assign[t.Var] > 0 {
				budget -= t.Coeff
			} else if assign[t.Var] == 0 {
				covered[t.Var] = t.Coeff
			}
		}
		if !valid {
			continue
		}
		if budget < 0 {
			budget = 0
		}
		// Free positive-objective variables NOT in this constraint can
		// always be taken.
		var outside float64
		type item struct{ value, weight float64 }
		var items []item
		for _, j := range order[depth:] {
			if assign[j] != 0 || s.m.objective[j] <= 0 {
				continue
			}
			if w, ok := covered[j]; ok {
				if w == 0 {
					outside += s.m.objective[j]
				} else {
					items = append(items, item{s.m.objective[j], w})
				}
			} else {
				outside += s.m.objective[j]
			}
		}
		sort.Slice(items, func(a, b int) bool {
			return items[a].value*items[b].weight > items[b].value*items[a].weight
		})
		knap := 0.0
		rem := budget
		for _, it := range items {
			if it.weight <= rem {
				knap += it.value
				rem -= it.weight
			} else {
				knap += it.value * rem / it.weight
				break
			}
		}
		if b := outside + knap; b < bound {
			bound = b
		}
	}
	return bound
}
