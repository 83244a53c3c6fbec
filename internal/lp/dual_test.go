package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// boundedForm converts an oracle Problem with LE/GE rows into the bounded
// dual simplex's A·x ≤ b form (GE rows negated) under the given bounds.
func boundedForm(t *testing.T, p *Problem, lo, hi []float64) *Simplex {
	t.Helper()
	var rows [][]float64
	var rhs []float64
	for _, c := range p.Constraints {
		row := append([]float64(nil), c.Coeffs...)
		b := c.RHS
		switch c.Rel {
		case GE:
			for j := range row {
				row[j] = -row[j]
			}
			b = -b
		case LE:
		default:
			t.Fatalf("boundedForm: relation %d", c.Rel)
		}
		rows = append(rows, row)
		rhs = append(rhs, b)
	}
	s, err := NewSimplex(p.Objective, rows, rhs, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// oracleWithBounds solves p with the two-phase oracle after adding lo/hi as
// explicit rows.
func oracleWithBounds(p *Problem, lo, hi []float64) (*Solution, error) {
	q := &Problem{Objective: p.Objective, Constraints: append([]Constraint(nil), p.Constraints...)}
	for j := range lo {
		row := make([]float64, len(lo))
		row[j] = 1
		if err := q.AddConstraint(row, LE, hi[j]); err != nil {
			return nil, err
		}
		if lo[j] > 0 {
			if err := q.AddConstraint(row, GE, lo[j]); err != nil {
				return nil, err
			}
		}
	}
	return Solve(q)
}

// degenerateCoveringLP builds a covering LP full of ties: unit coefficients,
// few distinct integer costs, and integer demands, so many vertices are
// primal- and dual-degenerate. Like randomCoveringLP it carries x ≤ 1 as
// rows, so the oracle sees the unit box too.
func degenerateCoveringLP(rng *rand.Rand, vars, rows int) *Problem {
	p := &Problem{Objective: make([]float64, vars)}
	for j := range p.Objective {
		p.Objective[j] = float64(1 + rng.Intn(2))
	}
	for i := 0; i < rows; i++ {
		row := make([]float64, vars)
		n := 0
		for j := range row {
			if rng.Float64() < 0.5 {
				row[j] = 1
				n++
			}
		}
		if err := p.AddConstraint(row, GE, float64(rng.Intn(n+1))); err != nil {
			panic(err)
		}
	}
	for j := 0; j < vars; j++ {
		row := make([]float64, vars)
		row[j] = 1
		if err := p.AddConstraint(row, LE, 1); err != nil {
			panic(err)
		}
	}
	return p
}

func unitBox(n int) (lo, hi []float64) {
	lo, hi = make([]float64, n), make([]float64, n)
	for j := range hi {
		hi[j] = 1
	}
	return lo, hi
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// TestSimplexMatchesOracle holds the cold dual simplex to the two-phase
// oracle's objective on random and degenerate covering LPs.
func TestSimplexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		vars, rows := 2+rng.Intn(12), 1+rng.Intn(8)
		var p *Problem
		if trial%2 == 0 {
			p = randomCoveringLP(rng, vars, rows)
		} else {
			p = degenerateCoveringLP(rng, vars, rows)
		}
		want, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		lo, hi := unitBox(vars)
		s := boundedForm(t, p, lo, hi)
		if err := s.Solve(); err != nil {
			t.Fatalf("trial %d: dual simplex: %v", trial, err)
		}
		if !closeTo(s.Objective(), want.Objective) {
			t.Fatalf("trial %d: objective %v, oracle %v", trial, s.Objective(), want.Objective)
		}
		// The anti-cycling fallback alone must reach the same optimum.
		bland := boundedForm(t, p, lo, hi)
		if err := bland.solve(0); err != nil {
			t.Fatalf("trial %d: Bland's rules: %v", trial, err)
		}
		if !closeTo(bland.Objective(), want.Objective) {
			t.Fatalf("trial %d: Bland's rules objective %v, oracle %v", trial, bland.Objective(), want.Objective)
		}
		x := make([]float64, vars)
		for j := range x {
			x[j] = s.Value(j)
		}
		assertFeasible(t, trial, p, x)
	}
}

// TestSimplexWarmBoundChanges re-solves one tableau through a random walk
// of bound changes (fix to 0, fix to 1, release), as branch-and-bound does,
// and compares every warm re-solve with a cold solve and the oracle under
// the same bounds, infeasible outcomes included.
func TestSimplexWarmBoundChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	infeasible := 0
	for trial := 0; trial < 60; trial++ {
		vars, rows := 3+rng.Intn(12), 1+rng.Intn(8)
		var p *Problem
		if trial%2 == 0 {
			p = randomCoveringLP(rng, vars, rows)
		} else {
			p = degenerateCoveringLP(rng, vars, rows)
		}
		lo, hi := unitBox(vars)
		warm := boundedForm(t, p, lo, hi)
		for step := 0; step < 25; step++ {
			j := rng.Intn(vars)
			switch rng.Intn(3) {
			case 0:
				lo[j], hi[j] = 0, 0
			case 1:
				lo[j], hi[j] = 1, 1
			default:
				lo[j], hi[j] = 0, 1
			}
			if err := warm.SetBounds(lo, hi); err != nil {
				t.Fatal(err)
			}
			werr := warm.Solve()
			cold := boundedForm(t, p, lo, hi)
			cerr := cold.Solve()
			want, oerr := oracleWithBounds(p, lo, hi)
			if errors.Is(oerr, ErrInfeasibleLP) {
				infeasible++
				if !errors.Is(werr, ErrInfeasibleLP) || !errors.Is(cerr, ErrInfeasibleLP) {
					t.Fatalf("trial %d step %d: oracle infeasible, warm %v, cold %v", trial, step, werr, cerr)
				}
				continue
			}
			if oerr != nil || werr != nil || cerr != nil {
				t.Fatalf("trial %d step %d: oracle %v, warm %v, cold %v", trial, step, oerr, werr, cerr)
			}
			if !closeTo(warm.Objective(), want.Objective) || !closeTo(cold.Objective(), want.Objective) {
				t.Fatalf("trial %d step %d: warm %v, cold %v, oracle %v",
					trial, step, warm.Objective(), cold.Objective(), want.Objective)
			}
		}
	}
	if infeasible == 0 {
		t.Fatal("the walk never reached an infeasible bound set; the infeasible path is untested")
	}
}

// TestSimplexReducedCostBound checks the inequality reduced-cost fixing
// relies on: at an optimum, forcing a nonbasic variable to its other bound
// costs at least its |reduced cost|.
func TestSimplexReducedCostBound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		vars := 3 + rng.Intn(10)
		p := randomCoveringLP(rng, vars, 1+rng.Intn(6))
		lo, hi := unitBox(vars)
		s := boundedForm(t, p, lo, hi)
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		z := s.Objective()
		for j := 0; j < vars; j++ {
			if s.Basic(j) {
				continue
			}
			flo, fhi := append([]float64(nil), lo...), append([]float64(nil), hi...)
			v := 1 - s.Value(j)
			flo[j], fhi[j] = v, v
			flipped := boundedForm(t, p, flo, fhi)
			if err := flipped.Solve(); errors.Is(err, ErrInfeasibleLP) {
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			checked++
			if flipped.Objective() < z+math.Abs(s.ReducedCost(j))-1e-9 {
				t.Fatalf("trial %d var %d: flipped optimum %v below z %v + |d| %v",
					trial, j, flipped.Objective(), z, math.Abs(s.ReducedCost(j)))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no nonbasic variable was checked")
	}
}

func TestSimplexInfeasibleRow(t *testing.T) {
	// x0 + x1 ≥ 3 with both in [0, 1].
	s, err := NewSimplex([]float64{1, 1}, [][]float64{{-1, -1}}, []float64{-3}, []float64{0, 0}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(); !errors.Is(err, ErrInfeasibleLP) {
		t.Fatalf("want ErrInfeasibleLP, got %v", err)
	}
}

func TestSimplexNegativeCostStartsAtUpperBound(t *testing.T) {
	// min -x0 + x1 s.t. x0 + x1 ≤ 1.5 in the unit box: x0 = 1, x1 = 0.
	s, err := NewSimplex([]float64{-1, 1}, [][]float64{{1, 1}}, []float64{1.5}, []float64{0, 0}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.Objective() != -1 || s.Value(0) != 1 || s.Value(1) != 0 {
		t.Fatalf("got z=%v x=(%v,%v), want z=-1 x=(1,0)", s.Objective(), s.Value(0), s.Value(1))
	}
}

func TestSimplexRejectsBadShapes(t *testing.T) {
	lo, hi := unitBox(2)
	for name, build := range map[string]func() (*Simplex, error){
		"rhs length":   func() (*Simplex, error) { return NewSimplex([]float64{1, 1}, [][]float64{{1, 1}}, nil, lo, hi) },
		"row length":   func() (*Simplex, error) { return NewSimplex([]float64{1, 1}, [][]float64{{1}}, []float64{1}, lo, hi) },
		"bound length": func() (*Simplex, error) { return NewSimplex([]float64{1, 1}, nil, nil, lo[:1], hi) },
		"inverted": func() (*Simplex, error) {
			return NewSimplex([]float64{1, 1}, nil, nil, []float64{0, 1}, []float64{1, 0})
		},
		"infinite": func() (*Simplex, error) {
			return NewSimplex([]float64{1, 1}, nil, nil, lo, []float64{1, math.Inf(1)})
		},
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}
