package optimal

// This file preserves the pre-warm-start branch-and-bound tree as the
// differential oracle for Solve: every node substitutes its fixings out of
// the instance and solves the smaller LP cold, with no basis carried between
// nodes and no reduced-cost fixing. The search rules (SSAM incumbent seed,
// most-fractional branching with x=1 first, node and time budgets, open-bound
// accounting) are the same, so on instances both trees close they must
// agree on the optimal cost. The node LPs run on a fresh lp.Simplex each,
// the LP solver that package lp's own oracle holds to the original
// two-phase simplex.
//
// Nothing here ships: the file is test-only by suffix.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/lp"
)

// refSolve is the pre-warm-start Solve.
func refSolve(ins *core.Instance, opts Options) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, fmt.Errorf("optimal: %w", err)
	}
	if ins.TotalDemand() == 0 {
		return &Result{Winners: nil, Cost: 0, LowerBound: 0, Exact: true}, nil
	}
	if !ins.Coverable() {
		return nil, ErrInfeasible
	}

	s := &refSolver{ins: ins, opts: opts, best: math.Inf(1)}
	if opts.TimeLimit > 0 {
		s.deadline = time.Now().Add(opts.TimeLimit)
	}

	// Seed the incumbent with the greedy mechanism's selection.
	if out, err := core.SSAM(ins, core.Options{SkipCertificate: true}); err == nil {
		s.best = out.SocialCost
		s.bestWinners = append([]int(nil), out.Winners...)
	}

	rootLB, err := s.solveNode(nil)
	if err != nil {
		if errors.Is(err, lp.ErrInfeasibleLP) {
			return nil, ErrInfeasible
		}
		return nil, err
	}
	s.branch(nil, rootLB)

	if math.IsInf(s.best, 1) {
		return nil, ErrInfeasible
	}
	res := &Result{
		Winners:    s.bestWinners,
		Cost:       s.best,
		LowerBound: s.proverLB(rootLB.Objective),
		Exact:      s.exact,
		Nodes:      s.nodes,
	}
	return res, nil
}

type refFixing struct {
	bid int
	in  bool
}

type refSolver struct {
	ins         *core.Instance
	opts        Options
	best        float64
	bestWinners []int
	nodes       int
	exhausted   bool
	exact       bool
	deadline    time.Time
	// minLeafLB tracks the smallest LP bound among pruned-by-budget
	// subtrees, to report a correct global lower bound on early stop.
	openLB []float64
}

// proverLB returns the proven global lower bound: the root LP bound if the
// search was truncated, else the incumbent value itself.
func (s *refSolver) proverLB(rootLB float64) float64 {
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

// refNodeLP is the LP relaxation value and fractional solution at a node.
type refNodeLP struct {
	Objective float64
	X         []float64
}

// solveNode solves the LP relaxation under the given fixings. Fixed
// variables are substituted out rather than constrained: forced-in bids
// reduce the coverage RHS and exclude their bidder's remaining bids;
// forced-out bids are simply dropped. Each node therefore solves a smaller
// LP than its parent.
func (s *refSolver) solveNode(fixes []refFixing) (*refNodeLP, error) {
	ins := s.ins
	nb := len(ins.Bids)

	excluded := make([]bool, nb)
	fixedCost := 0.0
	residual := append([]int(nil), ins.Demand...)
	for _, f := range fixes {
		if !f.in {
			excluded[f.bid] = true
			continue
		}
		b := &ins.Bids[f.bid]
		fixedCost += b.Price
		for _, k := range b.Covers {
			residual[k] -= b.Units
		}
		for i := range ins.Bids {
			if ins.Bids[i].Bidder == b.Bidder {
				excluded[i] = true // includes f.bid itself
			}
		}
	}

	// Map the surviving bids to LP variables.
	vars := make([]int, 0, nb) // LP var -> original bid
	for i := range ins.Bids {
		if !excluded[i] {
			vars = append(vars, i)
		}
	}

	// The substituted LP goes to a cold dual simplex in A·x ≤ b form: GE
	// coverage rows are negated, and x ≤ 1 is the box (the bidder rows
	// imply it anyway).
	cost := make([]float64, len(vars))
	for v, i := range vars {
		cost[v] = ins.Bids[i].Price
	}
	var rows [][]float64
	var rhs []float64
	// Coverage constraints on residual demand: Σ Units·x ≥ residual_k.
	for k, d := range residual {
		if d <= 0 {
			continue
		}
		row := make([]float64, len(vars))
		nonzero := false
		for v, i := range vars {
			for _, c := range ins.Bids[i].Covers {
				if c == k {
					row[v] = -float64(ins.Bids[i].Units)
					nonzero = true
				}
			}
		}
		if !nonzero {
			return nil, lp.ErrInfeasibleLP
		}
		rows = append(rows, row)
		rhs = append(rhs, -float64(d))
	}
	// Bidder constraints: Σ_j x_ij ≤ 1 (also enforces x ≤ 1).
	byBidder := map[int][]int{}
	for v, i := range vars {
		byBidder[ins.Bids[i].Bidder] = append(byBidder[ins.Bids[i].Bidder], v)
	}
	bidders := make([]int, 0, len(byBidder))
	for b := range byBidder {
		bidders = append(bidders, b)
	}
	sort.Ints(bidders)
	for _, b := range bidders {
		row := make([]float64, len(vars))
		for _, v := range byBidder[b] {
			row[v] = 1
		}
		rows = append(rows, row)
		rhs = append(rhs, 1)
	}

	lo, hi := make([]float64, len(vars)), make([]float64, len(vars))
	for v := range hi {
		hi[v] = 1
	}
	cold, err := lp.NewSimplex(cost, rows, rhs, lo, hi)
	if err != nil {
		return nil, err
	}
	if err := cold.Solve(); err != nil {
		return nil, err
	}
	// Expand back to full variable space, re-applying the fixings.
	x := make([]float64, nb)
	for v, i := range vars {
		x[i] = cold.Value(v)
	}
	for _, f := range fixes {
		if f.in {
			x[f.bid] = 1
		}
	}
	return &refNodeLP{Objective: cold.Objective() + fixedCost, X: x}, nil
}

// branch explores the subtree under fixes, whose LP relaxation rel is
// already solved, updating the incumbent.
func (s *refSolver) branch(fixes []refFixing, rel *refNodeLP) {
	s.nodes++
	if s.nodes > s.opts.maxNodes() ||
		(!s.deadline.IsZero() && s.nodes%16 == 0 && time.Now().After(s.deadline)) {
		s.exhausted = true
		s.openLB = append(s.openLB, rel.Objective)
		return
	}
	gapOK := rel.Objective >= s.best-1e-9
	if s.opts.Gap > 0 {
		gapOK = rel.Objective >= s.best*(1-s.opts.Gap)
	}
	if gapOK {
		return // prune by bound
	}
	// Most-fractional branching variable.
	frac, fracBid := 0.0, -1
	for i, x := range rel.X {
		f := math.Abs(x - math.Round(x))
		if f > intTol && f > frac {
			frac, fracBid = f, i
		}
	}
	if fracBid < 0 {
		// Integral: candidate incumbent.
		winners := make([]int, 0)
		for i, x := range rel.X {
			if x > 0.5 {
				winners = append(winners, i)
			}
		}
		if rel.Objective < s.best-1e-9 {
			s.best = rel.Objective
			s.bestWinners = winners
		}
		return
	}
	// Branch x=1 first (tends to find good incumbents faster on covering
	// problems), then x=0.
	for _, in := range []bool{true, false} {
		if s.exhausted {
			// Budget spent somewhere below: stop solving sibling LPs; the
			// subtree bound recorded at exhaustion keeps proverLB valid.
			s.openLB = append(s.openLB, rel.Objective)
			return
		}
		child := append(append([]refFixing(nil), fixes...), refFixing{bid: fracBid, in: in})
		childRel, err := s.solveNode(child)
		if err != nil {
			if errors.Is(err, lp.ErrInfeasibleLP) {
				continue
			}
			// Unexpected refSolver failure: treat subtree as open so the
			// reported bound stays valid.
			s.exhausted = true
			s.openLB = append(s.openLB, rel.Objective)
			continue
		}
		s.branch(child, childRel)
	}
}
