// Package lp implements the small dense linear-programming solver behind
// the offline-optimal ILP solver used to compute the paper's performance
// ratios: the LP relaxation of the winner selection problem gives the lower
// bounds driving branch-and-bound.
//
// The solver is a bounded-variable dual simplex over one dense tableau. It
// is built for what branch-and-bound does: re-solve the same LP many times
// under changing variable bounds. A bound change keeps the current basis
// dual-feasible, so each re-solve starts from the previous basis and
// typically needs a handful of pivots instead of a cold two-phase solve.
//
// The solver targets the modest, dense instances of this reproduction
// (hundreds of variables/constraints), favouring clarity and numerical
// robustness over sparse-matrix performance.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasibleLP reports an empty feasible region.
var ErrInfeasibleLP = errors.New("lp: infeasible")

// errIterLimit reports a solve that neither reached optimality nor proved
// infeasibility within its pivot budget.
var errIterLimit = errors.New("lp: simplex iteration limit exceeded (possible cycling)")

// eps is the primal feasibility, pivot and dual tolerance.
const eps = 1e-9

// Simplex minimizes c·x subject to A·x ≤ b and lo ≤ x ≤ hi, where every
// bound is finite. Row i of A gets a slack s_i ≥ 0 (A·x + s = b), and the
// dense tableau holds B⁻¹[A | I] for the current basis B, so its slack
// columns are B⁻¹ itself.
//
// With finite bounds every basis can be made dual-feasible by putting each
// nonbasic variable at the bound its reduced cost's sign selects; the
// all-slack start basis is one of them. Solve therefore needs no phase 1
// and no artificial columns, and SetBounds followed by Solve re-optimises
// from whatever basis the previous solve left.
type Simplex struct {
	m, n, cols int         // rows, structural columns, n+m
	rows       [][]float64 // A, read-only
	rhs        []float64   // b
	cost       []float64   // c

	tab   []float64 // m×cols tableau B⁻¹[A | I], row-major
	d     []float64 // reduced cost of every column
	beta  []float64 // value of the basic variable of each row
	basis []int     // basic column of each row
	rowOf []int     // row of a basic column, -1 when nonbasic
	x     []float64 // value of each nonbasic column (at lo or hi)
	lo    []float64 // bounds of every column; slacks are [0, +Inf)
	hi    []float64
	nz    []int       // scratch: nonzero columns of the pivot row
	cand  []candidate // scratch: ratio-test candidates
	res   []float64   // scratch: b − N·x_N
}

// NewSimplex builds the LP min c·x s.t. rows·x ≤ rhs, lo ≤ x ≤ hi on the
// all-slack basis. The Simplex keeps rows and reads them on every
// SetBounds; the caller must not modify them afterwards.
func NewSimplex(c []float64, rows [][]float64, rhs, lo, hi []float64) (*Simplex, error) {
	m, n := len(rows), len(c)
	if len(rhs) != m {
		return nil, fmt.Errorf("lp: %d constraint rows but %d right-hand sides", m, len(rhs))
	}
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("lp: constraint %d has %d coefficients for %d variables", i, len(r), n)
		}
	}
	cols := n + m
	t := &Simplex{
		m: m, n: n, cols: cols, rows: rows, rhs: rhs, cost: c,
		tab:   make([]float64, m*cols),
		d:     make([]float64, cols),
		beta:  make([]float64, m),
		basis: make([]int, m),
		rowOf: make([]int, cols),
		x:     make([]float64, cols),
		lo:    make([]float64, cols),
		hi:    make([]float64, cols),
		nz:    make([]int, 0, cols),
		res:   make([]float64, m),
	}
	copy(t.d, c)
	for j := range t.rowOf {
		t.rowOf[j] = -1
	}
	for i, r := range rows {
		copy(t.tab[i*cols:], r)
		t.tab[i*cols+n+i] = 1
		t.basis[i] = n + i
		t.rowOf[n+i] = i
		t.hi[n+i] = math.Inf(1)
	}
	if err := t.SetBounds(lo, hi); err != nil {
		return nil, err
	}
	return t, nil
}

// SetBounds installs new structural bounds, keeping the current basis. Each
// nonbasic variable moves to the bound its reduced cost's sign selects (the
// upper bound when it is below −eps, else the lower bound), which keeps
// the basis dual-feasible; the basic values are then recomputed as
// B⁻¹(b − N·x_N). A basic variable outside its new bounds is left for
// Solve to repair.
func (t *Simplex) SetBounds(lo, hi []float64) error {
	if len(lo) != t.n || len(hi) != t.n {
		return fmt.Errorf("lp: %d/%d bounds for %d variables", len(lo), len(hi), t.n)
	}
	for j := range lo {
		if math.IsInf(lo[j], 0) || math.IsInf(hi[j], 0) || !(lo[j] <= hi[j]) {
			return fmt.Errorf("lp: variable %d has bounds [%v, %v]; need finite lo <= hi", j, lo[j], hi[j])
		}
	}
	copy(t.lo, lo)
	copy(t.hi, hi)
	for j := 0; j < t.n; j++ {
		if t.rowOf[j] >= 0 {
			continue
		}
		if t.d[j] < -eps {
			t.x[j] = hi[j]
		} else {
			t.x[j] = lo[j]
		}
	}
	// Nonbasic slacks sit at zero, so b − N·x_N only needs the nonbasic
	// structural columns.
	res := t.res
	copy(res, t.rhs)
	for j := 0; j < t.n; j++ {
		if t.rowOf[j] >= 0 || t.x[j] == 0 {
			continue
		}
		for i, r := range t.rows {
			res[i] -= r[j] * t.x[j]
		}
	}
	for i := range t.beta {
		binv := t.tab[i*t.cols+t.n : (i+1)*t.cols]
		var v float64
		for k, r := range res {
			v += binv[k] * r
		}
		t.beta[i] = v
	}
	return nil
}

// Solve re-optimises from the current basis with the dual simplex. Each
// iteration removes the basic variable with the largest bound violation
// (Dantzig dual pricing) and enters the column chosen by a Harris two-pass
// ratio test, which keeps every reduced cost dual-feasible. After a long
// run of iterations it switches to Bland's smallest-index rules, which
// cannot cycle. It returns ErrInfeasibleLP when a violated row has no
// entering candidate: no point within the bounds satisfies it.
func (t *Simplex) Solve() error {
	return t.solve(20 * (t.m + t.cols + 10))
}

// solve runs the dual simplex with Bland's rules from iteration blandAfter
// on, within a budget of ten times that.
func (t *Simplex) solve(blandAfter int) error {
	maxIters := 10 * max(blandAfter, t.m+t.cols+10)
	for iter := 0; iter < maxIters; iter++ {
		bland := iter >= blandAfter
		r, target := t.leaving(bland)
		if r < 0 {
			return nil
		}
		q := t.entering(r, target, bland)
		if q < 0 {
			return ErrInfeasibleLP
		}
		t.pivot(r, q, target)
	}
	return errIterLimit
}

// leaving picks the row whose basic variable violates its bounds, and the
// bound it leaves at; r is -1 when the basis is primal-feasible.
func (t *Simplex) leaving(bland bool) (r int, target float64) {
	r = -1
	worst := eps
	for i, j := range t.basis {
		v := t.beta[i]
		var viol, bound float64
		switch {
		case v < t.lo[j]-eps:
			viol, bound = t.lo[j]-v, t.lo[j]
		case v > t.hi[j]+eps:
			viol, bound = v-t.hi[j], t.hi[j]
		default:
			continue
		}
		if bland {
			if r < 0 || j < t.basis[r] {
				r, target = i, bound
			}
		} else if viol > worst {
			worst, r, target = viol, i, bound
		}
	}
	return r, target
}

// entering picks the nonbasic column that replaces row r's basic variable
// as it moves to target. A candidate is a column whose move within its
// bounds pushes the leaving variable toward target; its ratio |d_j / α_rj|
// is the dual step at which its reduced cost reaches zero. The Harris pass
// takes, among candidates within an eps-relaxed minimum ratio, the one with
// the largest |α_rj| (the stablest pivot); Bland's rule takes the smallest
// index at the exact minimum ratio.
func (t *Simplex) entering(r int, target float64, bland bool) int {
	row := t.tab[r*t.cols : (r+1)*t.cols]
	rise := target > t.beta[r] // the leaving variable is below its lower bound
	t.cand = t.cand[:0]
	q, least, bound := -1, math.Inf(1), math.Inf(1)
	for j, a := range row {
		if a == 0 || t.rowOf[j] >= 0 || t.lo[j] == t.hi[j] {
			continue
		}
		// x_B[r] = β_r − Σ α_rj·Δx_j, so with a oriented by rise, a > 0
		// means raising x_j moves the leaving variable toward target.
		if rise {
			a = -a
		}
		var dj float64
		switch {
		case t.x[j] == t.lo[j] && a > eps:
			dj = max(t.d[j], 0)
		case t.x[j] == t.hi[j] && a < -eps:
			dj, a = max(-t.d[j], 0), -a
		default:
			continue
		}
		if ratio := dj / a; ratio < least {
			q, least = j, ratio
		}
		bound = min(bound, (dj+eps)/a)
		t.cand = append(t.cand, candidate{j: j, ratio: dj / a, a: a})
	}
	if bland {
		return q
	}
	var big float64
	for _, c := range t.cand {
		if c.ratio <= bound && c.a > big {
			big, q = c.a, c.j
		}
	}
	return q
}

// candidate is an entering column of the ratio test with its dual step
// ratio and oriented pivot magnitude.
type candidate struct {
	j        int
	ratio, a float64
}

// pivot enters column q in row r, whose basic variable leaves at target,
// updating the basic values, the tableau and the reduced costs.
func (t *Simplex) pivot(r, q int, target float64) {
	cols := t.cols
	prow := t.tab[r*cols : (r+1)*cols]
	alpha := prow[q]
	step := (t.beta[r] - target) / alpha // change of x_q
	for i := range t.beta {
		t.beta[i] -= t.tab[i*cols+q] * step
	}
	leave := t.basis[r]
	t.beta[r] = t.x[q] + step
	t.x[leave] = target
	t.rowOf[leave] = -1
	t.basis[r] = q
	t.rowOf[q] = r

	inv := 1 / alpha
	t.nz = t.nz[:0]
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * inv
			t.nz = append(t.nz, j)
		}
	}
	prow[q] = 1
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		irow := t.tab[i*cols : (i+1)*cols]
		f := irow[q]
		if f == 0 {
			continue
		}
		for _, j := range t.nz {
			irow[j] -= f * prow[j]
		}
		irow[q] = 0
	}
	f := t.d[q]
	for _, j := range t.nz {
		t.d[j] -= f * prow[j]
	}
	t.d[q] = 0
}

// Value returns the current value of structural variable j.
func (t *Simplex) Value(j int) float64 {
	if r := t.rowOf[j]; r >= 0 {
		return t.beta[r]
	}
	return t.x[j]
}

// Basic reports whether structural variable j is basic.
func (t *Simplex) Basic(j int) bool { return t.rowOf[j] >= 0 }

// ReducedCost returns d_j, the objective's rate of change as nonbasic
// variable j moves off its bound (zero for a basic variable). At an optimal
// basis, every point within the current bounds costs at least
// Objective() + Σ_j d_j·(x_j − Value(j)) over the nonbasic j, each term
// non-negative.
func (t *Simplex) ReducedCost(j int) float64 { return t.d[j] }

// Objective returns c·x at the current basis.
func (t *Simplex) Objective() float64 {
	var z float64
	for j, c := range t.cost {
		z += c * t.Value(j)
	}
	return z
}
