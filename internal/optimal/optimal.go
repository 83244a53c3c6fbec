// Package optimal computes offline-optimal solutions of the winner
// selection problem (ILP (12) in the paper). The performance-ratio figures
// (3a, 5a, 6a) divide the mechanism's social cost by this optimum.
//
// The solver is branch-and-bound over bids with lower bounds from the LP
// relaxation and an initial incumbent from the greedy mechanism itself.
// One internal/lp dual simplex tableau serves the whole search: each child
// node is a bound change re-solved from the current basis, and reduced-cost
// fixing against the incumbent tightens every subtree. For instances that
// exceed the node budget it returns the best incumbent together with the proven LP lower bound and
// Exact=false — ratios computed against the lower bound then over-estimate
// (never under-estimate) the true ratio, which keeps reported results
// conservative.
package optimal

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/lp"
)

// ErrInfeasible reports that no selection of bids covers the demand.
var ErrInfeasible = errors.New("optimal: instance infeasible")

// Result is the outcome of an offline solve.
type Result struct {
	// Winners are bid indices of the best solution found.
	Winners []int
	// Cost is the objective value of Winners.
	Cost float64
	// LowerBound is a proven lower bound on the optimal cost. When
	// Exact is true, LowerBound == Cost (up to float tolerance).
	LowerBound float64
	// Exact reports whether Cost is provably optimal.
	Exact bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// Options bounds the search effort.
type Options struct {
	// MaxNodes caps branch-and-bound nodes; zero means 200000.
	MaxNodes int
	// Gap is the relative optimality gap at which search stops early;
	// zero means prove optimality to 1e-9 absolute.
	Gap float64
	// TimeLimit caps wall-clock search time; zero means unlimited. On
	// expiry the best incumbent and a valid lower bound are returned with
	// Exact=false.
	TimeLimit time.Duration
}

func (o Options) maxNodes() int {
	if o.MaxNodes == 0 {
		return 200000
	}
	return o.MaxNodes
}

// Solve computes the offline optimum of the single-stage winner selection
// problem on ins.
func Solve(ins *core.Instance, opts Options) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, fmt.Errorf("optimal: %w", err)
	}
	if ins.TotalDemand() == 0 {
		return &Result{Winners: nil, Cost: 0, LowerBound: 0, Exact: true}, nil
	}
	if !ins.Coverable() {
		return nil, ErrInfeasible
	}

	s, err := newSolver(ins, opts)
	if err != nil {
		return nil, err
	}
	if opts.TimeLimit > 0 {
		s.deadline = time.Now().Add(opts.TimeLimit)
	}

	// Seed the incumbent with the greedy mechanism's selection.
	if out, err := core.SSAM(ins, core.Options{SkipCertificate: true}); err == nil {
		s.best = out.SocialCost
		s.bestWinners = append([]int(nil), out.Winners...)
	}

	if err := s.lp.Solve(); err != nil {
		if errors.Is(err, lp.ErrInfeasibleLP) {
			return nil, ErrInfeasible
		}
		return nil, fmt.Errorf("optimal: root relaxation: %w", err)
	}
	rootLB := s.lp.Objective()
	s.branch(0, rootLB)

	if math.IsInf(s.best, 1) {
		return nil, ErrInfeasible
	}
	res := &Result{
		Winners:    s.bestWinners,
		Cost:       s.best,
		LowerBound: s.proverLB(rootLB),
		Exact:      s.exact,
		Nodes:      s.nodes,
	}
	return res, nil
}

// box is the variable bounds of one search depth.
type box struct{ lo, hi []float64 }

type solver struct {
	ins         *core.Instance
	opts        Options
	best        float64
	bestWinners []int
	nodes       int
	exhausted   bool
	exact       bool
	deadline    time.Time
	// openLB holds the LP bounds of subtrees left unexplored when the
	// budget ran out, to report a correct global lower bound on early stop.
	openLB []float64
	// lp is the relaxation's one tableau, warm-started down the tree.
	lp *lp.Simplex
	// boxes[d] is the bounds of the node open at depth d; boxes[0] is the
	// unit box of the root.
	boxes []box
}

// proverLB returns the proven global lower bound: the root LP bound if the
// search was truncated, else the incumbent value itself.
func (s *solver) proverLB(rootLB float64) float64 {
	if s.exhausted {
		lb := rootLB
		for _, v := range s.openLB {
			if v < lb {
				lb = v
			}
		}
		if lb > s.best {
			lb = s.best
		}
		s.exact = false
		return lb
	}
	s.exact = true
	return s.best
}

// newSolver builds the LP relaxation of ILP (12) over the full bid space,
// in the dual simplex's A·x ≤ b form with 0 ≤ x ≤ 1:
//
//   - one coverage row per needy microservice with positive demand,
//     −Σ_j a_jk·x_j ≤ −d_k;
//   - one row per bidder with several bids, Σ_j x_j ≤ 1, so that a 0/1
//     branch is only a bound change.
//
// Prices are non-negative (Validate), so the all-slack start basis is
// dual-feasible with every x_j at 0.
func newSolver(ins *core.Instance, opts Options) (*solver, error) {
	n := len(ins.Bids)
	coverRow := make([]int, len(ins.Demand))
	m := 0
	for k, d := range ins.Demand {
		coverRow[k] = -1
		if d > 0 {
			coverRow[k] = m
			m++
		}
	}
	byBidder := map[int][]int{}
	for j, b := range ins.Bids {
		byBidder[b.Bidder] = append(byBidder[b.Bidder], j)
	}
	bidders := make([]int, 0, len(byBidder))
	for b, bids := range byBidder {
		if len(bids) > 1 {
			bidders = append(bidders, b)
		}
	}
	sort.Ints(bidders)

	m += len(bidders)
	flat := make([]float64, m*n)
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n]
	}
	rhs := make([]float64, m)
	cost := make([]float64, n)
	for k, d := range ins.Demand {
		if r := coverRow[k]; r >= 0 {
			rhs[r] = -float64(d)
		}
	}
	for j, b := range ins.Bids {
		cost[j] = b.Price
		for _, k := range b.Covers {
			if r := coverRow[k]; r >= 0 {
				rows[r][j] = -float64(b.Units)
			}
		}
	}
	r := m - len(bidders)
	for _, b := range bidders {
		for _, j := range byBidder[b] {
			rows[r][j] = 1
		}
		rhs[r] = 1
		r++
	}

	s := &solver{ins: ins, opts: opts, best: math.Inf(1)}
	root := s.boxAt(0)
	for j := range root.hi {
		root.hi[j] = 1
	}
	relax, err := lp.NewSimplex(cost, rows, rhs, root.lo, root.hi)
	if err != nil {
		return nil, fmt.Errorf("optimal: %w", err)
	}
	s.lp = relax
	return s, nil
}

// boxAt returns the bounds of depth d, allocating the depth on first use.
// Siblings at one depth reuse its vectors.
func (s *solver) boxAt(d int) *box {
	for len(s.boxes) <= d {
		n := len(s.ins.Bids)
		s.boxes = append(s.boxes, box{lo: make([]float64, n), hi: make([]float64, n)})
	}
	return &s.boxes[d]
}

const intTol = 1e-6

// branch explores the subtree of the node at depth, whose bounds are
// boxes[depth] and whose LP relaxation the tableau holds solved, with
// objective z. It updates the incumbent.
func (s *solver) branch(depth int, z float64) {
	s.nodes++
	if s.nodes > s.opts.maxNodes() ||
		(!s.deadline.IsZero() && s.nodes%16 == 0 && time.Now().After(s.deadline)) {
		s.exhausted = true
		s.openLB = append(s.openLB, z)
		return
	}
	gapOK := z >= s.best-1e-9
	if s.opts.Gap > 0 {
		gapOK = z >= s.best*(1-s.opts.Gap)
	}
	if gapOK {
		return // prune by bound
	}
	node := s.boxAt(depth)
	// Reduced-cost fixing: moving nonbasic x_j off its bound raises every
	// LP value in this box by at least |d_j|, so once z + |d_j| reaches the
	// incumbent no better solution in the subtree moves it.
	for j := range node.lo {
		if node.lo[j] == node.hi[j] || s.lp.Basic(j) {
			continue
		}
		if z+math.Abs(s.lp.ReducedCost(j)) >= s.best-1e-9 {
			v := s.lp.Value(j)
			node.lo[j], node.hi[j] = v, v
		}
	}
	// Most-fractional branching variable.
	frac, fracBid := 0.0, -1
	for j := range s.ins.Bids {
		x := s.lp.Value(j)
		f := math.Abs(x - math.Round(x))
		if f > intTol && f > frac {
			frac, fracBid = f, j
		}
	}
	if fracBid < 0 {
		// Integral: candidate incumbent.
		winners := make([]int, 0)
		cost := 0.0
		for j := range s.ins.Bids {
			if s.lp.Value(j) > 0.5 {
				winners = append(winners, j)
				cost += s.ins.Bids[j].Price
			}
		}
		if cost < s.best-1e-9 {
			s.best = cost
			s.bestWinners = winners
		}
		return
	}
	// Branch x=1 first (tends to find good incumbents faster on covering
	// problems), then x=0. Each child is a bound change re-solved from the
	// tableau's current basis: the parent's for x=1, whatever the x=1
	// subtree left for x=0.
	child := s.boxAt(depth + 1)
	for _, v := range []float64{1, 0} {
		if s.exhausted {
			// Budget spent somewhere below: stop solving sibling LPs; the
			// subtree bound recorded at exhaustion keeps proverLB valid.
			s.openLB = append(s.openLB, z)
			return
		}
		copy(child.lo, node.lo)
		copy(child.hi, node.hi)
		child.lo[fracBid], child.hi[fracBid] = v, v
		err := s.lp.SetBounds(child.lo, child.hi)
		if err == nil {
			err = s.lp.Solve()
		}
		if err != nil {
			if errors.Is(err, lp.ErrInfeasibleLP) {
				continue
			}
			// Unexpected solver failure: treat subtree as open so the
			// reported bound stays valid.
			s.exhausted = true
			s.openLB = append(s.openLB, z)
			continue
		}
		s.branch(depth+1, s.lp.Objective())
	}
}

// SolveExhaustive enumerates all bid subsets (at most one bid per bidder)
// and returns the true optimum. Exponential; use only on tiny instances —
// it exists to cross-check Solve in tests. It returns ErrInfeasible when no
// subset covers the demand.
func SolveExhaustive(ins *core.Instance) (*Result, error) {
	byBidder := map[int][]int{}
	for i, b := range ins.Bids {
		byBidder[b.Bidder] = append(byBidder[b.Bidder], i)
	}
	bidders := make([]int, 0, len(byBidder))
	for b := range byBidder {
		bidders = append(bidders, b)
	}
	sort.Ints(bidders)
	if len(bidders) > 16 {
		return nil, fmt.Errorf("optimal: exhaustive solver limited to 16 bidders, got %d", len(bidders))
	}

	best := math.Inf(1)
	var bestWinners []int
	theta := make([]int, len(ins.Demand))

	var rec func(bi int, cost float64, chosen []int)
	rec = func(bi int, cost float64, chosen []int) {
		if cost >= best {
			return
		}
		if bi == len(bidders) {
			for k, d := range ins.Demand {
				if theta[k] < d {
					return
				}
			}
			best = cost
			bestWinners = append([]int(nil), chosen...)
			return
		}
		// Option: skip this bidder.
		rec(bi+1, cost, chosen)
		// Option: take one of its bids.
		for _, idx := range byBidder[bidders[bi]] {
			b := &ins.Bids[idx]
			for _, k := range b.Covers {
				theta[k] += b.Units
			}
			rec(bi+1, cost+b.Price, append(chosen, idx))
			for _, k := range b.Covers {
				theta[k] -= b.Units
			}
		}
	}
	rec(0, 0, nil)

	if math.IsInf(best, 1) {
		return nil, ErrInfeasible
	}
	return &Result{Winners: bestWinners, Cost: best, LowerBound: best, Exact: true}, nil
}

// LowerBound returns the LP-relaxation lower bound of the instance without
// any search: the cheapest certified denominator for ratio experiments on
// instances too large to solve exactly.
func LowerBound(ins *core.Instance) (float64, error) {
	if err := ins.Validate(); err != nil {
		return 0, fmt.Errorf("optimal: %w", err)
	}
	s, err := newSolver(ins, Options{})
	if err != nil {
		return 0, err
	}
	if err := s.lp.Solve(); err != nil {
		if errors.Is(err, lp.ErrInfeasibleLP) {
			return 0, ErrInfeasible
		}
		return 0, fmt.Errorf("optimal: %w", err)
	}
	return s.lp.Objective(), nil
}
