package lp

// This file preserves the original two-phase primal simplex verbatim as the
// differential oracle for the bounded dual simplex in simplex.go: a dense
// standard-form tableau rebuilt per solve, slack/surplus/artificial columns,
// Dantzig pricing with a Bland's-rule fallback. The general-relation tests
// (EQ rows, unbounded and negative-RHS problems, degenerate vertices) run
// against it, and dual_test.go holds the new solver to its objective.
//
// Nothing here ships: the file is test-only by suffix.

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int

const (
	// LE is a_i · x ≤ b_i.
	LE Relation = iota + 1
	// GE is a_i · x ≥ b_i.
	GE
	// EQ is a_i · x = b_i.
	EQ
)

// Constraint is one linear constraint over the problem variables.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

// Problem is a minimization LP: min c·x subject to the constraints and
// x ≥ 0 (bounds beyond non-negativity are expressed as constraints).
type Problem struct {
	// Objective holds c, one coefficient per variable.
	Objective   []float64
	Constraints []Constraint
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// AddConstraint appends a constraint; coeffs must have NumVars entries.
func (p *Problem) AddConstraint(coeffs []float64, rel Relation, rhs float64) error {
	if len(coeffs) != p.NumVars() {
		return fmt.Errorf("lp: constraint has %d coefficients for %d variables", len(coeffs), p.NumVars())
	}
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Rel: rel, RHS: rhs})
	return nil
}

// Solution is an optimal LP solution.
type Solution struct {
	// X is the optimal point over the structural variables.
	X []float64
	// Objective is c·X.
	Objective float64
}

// ErrUnbounded reports an objective unbounded below.
var ErrUnbounded = errors.New("lp: unbounded")

// Solve minimizes the problem with two-phase simplex. It returns
// ErrInfeasibleLP or ErrUnbounded as appropriate.
func Solve(p *Problem) (*Solution, error) {
	t, err := newTableau(p)
	if err != nil {
		return nil, err
	}
	if t.needPhase1 {
		if err := t.phase1(); err != nil {
			return nil, err
		}
	}
	if err := t.phase2(); err != nil {
		return nil, err
	}
	return t.solution(), nil
}

// tableau is a dense simplex tableau in canonical form. Column layout:
// [structural | slack/surplus | artificial], one row per constraint plus an
// objective row maintained in reduced-cost form.
type tableau struct {
	m, n       int // constraints, structural vars
	cols       int // total columns (without RHS)
	a          [][]float64
	rhs        []float64
	basis      []int // basis[i] = column basic in row i
	cost       []float64
	artStart   int // first artificial column
	needPhase1 bool
	p          *Problem
}

func newTableau(p *Problem) (*tableau, error) {
	m := len(p.Constraints)
	n := p.NumVars()
	// Count slack/surplus and artificial columns.
	slacks := 0
	arts := 0
	for _, c := range p.Constraints {
		switch c.Rel {
		case LE, GE:
			slacks++
		case EQ:
		default:
			return nil, fmt.Errorf("lp: unknown relation %d", c.Rel)
		}
	}
	// Artificial variables are decided after RHS normalization below.
	t := &tableau{m: m, n: n, p: p}
	t.a = make([][]float64, m)
	t.rhs = make([]float64, m)
	t.basis = make([]int, m)

	// First pass: normalize rows to RHS >= 0, note which need artificials.
	type rowinfo struct {
		rel     Relation
		flipped bool
	}
	infos := make([]rowinfo, m)
	for i, c := range p.Constraints {
		rel := c.Rel
		flip := c.RHS < 0
		if flip {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		infos[i] = rowinfo{rel: rel, flipped: flip}
		switch rel {
		case GE, EQ:
			arts++
		}
	}
	t.cols = n + slacks + arts
	t.artStart = n + slacks
	t.needPhase1 = arts > 0

	slackCol := n
	artCol := t.artStart
	for i, c := range p.Constraints {
		row := make([]float64, t.cols)
		sign := 1.0
		rhs := c.RHS
		if infos[i].flipped {
			sign = -1
			rhs = -rhs
		}
		for j, v := range c.Coeffs {
			row[j] = sign * v
		}
		switch infos[i].rel {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1 // surplus
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.a[i] = row
		t.rhs[i] = rhs
	}

	t.cost = make([]float64, t.cols)
	copy(t.cost, p.Objective)
	return t, nil
}

// reducedCosts computes z_j - c_j style reduced costs for objective vector
// obj (length cols) given the current basis, returning (reduced, objValue).
func (t *tableau) reducedCosts(obj []float64) ([]float64, float64) {
	// y = c_B applied through the basis rows: since the tableau is kept in
	// canonical form (basic columns are unit vectors), the reduced cost of
	// column j is c_j - Σ_i c_{basis[i]} · a[i][j], and the objective value
	// is Σ_i c_{basis[i]} · rhs[i].
	red := make([]float64, t.cols)
	copy(red, obj)
	var val float64
	for i := 0; i < t.m; i++ {
		cb := obj[t.basis[i]]
		if cb == 0 {
			continue
		}
		val += cb * t.rhs[i]
		for j := 0; j < t.cols; j++ {
			red[j] -= cb * t.a[i][j]
		}
	}
	return red, val
}

// pivot performs a standard pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	pv := t.a[row][col]
	inv := 1 / pv
	for j := 0; j < t.cols; j++ {
		t.a[row][j] *= inv
	}
	t.rhs[row] *= inv
	t.a[row][col] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.a[i][col] = 0 // exact
		t.rhs[i] -= f * t.rhs[row]
	}
	t.basis[row] = col
}

// iterate runs simplex iterations minimizing obj over columns [0, limit)
// until optimality. The reduced-cost row is maintained incrementally across
// pivots. Pricing uses Dantzig's most-negative rule for speed, switching to
// Bland's smallest-index rule (which provably terminates) once the
// iteration count suggests cycling. It returns ErrUnbounded if a negative
// reduced-cost column has no positive entries.
func (t *tableau) iterate(obj []float64, limit int) error {
	red, _ := t.reducedCosts(obj)
	maxIters := 200 * (t.m + t.cols + 10) // hard stop for pathological cases
	blandAfter := 20 * (t.m + t.cols + 10)
	for iter := 0; iter < maxIters; iter++ {
		col := -1
		if iter < blandAfter {
			most := -eps
			for j := 0; j < limit; j++ {
				if red[j] < most {
					most, col = red[j], j
				}
			}
		} else {
			for j := 0; j < limit; j++ {
				if red[j] < -eps {
					col = j
					break
				}
			}
		}
		if col < 0 {
			return nil // optimal
		}
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][col] > eps {
				ratio := t.rhs[i] / t.a[i][col]
				if ratio < bestRatio-eps ||
					(math.Abs(ratio-bestRatio) <= eps && (row < 0 || t.basis[i] < t.basis[row])) {
					bestRatio = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return ErrUnbounded
		}
		t.pivot(row, col)
		// Update the reduced-cost row against the (now normalized) pivot row.
		f := red[col]
		prow := t.a[row]
		for j := 0; j < t.cols; j++ {
			red[j] -= f * prow[j]
		}
		red[col] = 0
	}
	return errors.New("lp: simplex iteration limit exceeded (possible cycling)")
}

// phase1 drives artificial variables to zero; infeasible if it cannot.
func (t *tableau) phase1() error {
	obj := make([]float64, t.cols)
	for j := t.artStart; j < t.cols; j++ {
		obj[j] = 1
	}
	if err := t.iterate(obj, t.cols); err != nil {
		return err
	}
	_, val := t.reducedCosts(obj)
	if val > 1e-7 {
		return ErrInfeasibleLP
	}
	// Pivot any artificial still basic (at zero level) out of the basis
	// when possible, so phase 2 never re-enters them.
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is redundant; leave the zero-level artificial basic. Its
			// column is excluded from phase-2 pricing, so it stays at zero.
			continue
		}
	}
	return nil
}

// phase2 minimizes the true objective over non-artificial columns.
func (t *tableau) phase2() error {
	return t.iterate(t.cost, t.artStart)
}

func (t *tableau) solution() *Solution {
	x := make([]float64, t.n)
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.n {
			x[t.basis[i]] = t.rhs[i]
		}
	}
	var obj float64
	for j, c := range t.p.Objective {
		obj += c * x[j]
	}
	return &Solution{X: x, Objective: obj}
}
