package optimal

import (
	"errors"
	"math"
	"testing"

	"edgeauction/internal/core"
	"edgeauction/internal/workload"
)

func TestSolveMatchesExhaustiveOnRandomInstances(t *testing.T) {
	rng := workload.NewRand(42)
	for trial := 0; trial < 40; trial++ {
		ins := workload.Instance(rng, workload.InstanceConfig{
			Bidders:  3 + rng.Intn(6), // <= 8 bidders, exhaustive-friendly
			Needy:    1 + rng.Intn(3),
			DemandLo: 1, DemandHi: 6,
			UnitsLo: 1, UnitsHi: 3,
			// The reserve ladder would add one extra bidder per rung and
			// blow the exhaustive solver's size limit; cross-check on the
			// bare market instead (infeasible draws are exercised too).
			NoReserve: true,
		})
		want, errEx := SolveExhaustive(ins)
		got, errBB := Solve(ins, Options{})
		if errEx != nil {
			if !errors.Is(errEx, ErrInfeasible) {
				t.Fatalf("trial %d: exhaustive failed unexpectedly: %v", trial, errEx)
			}
			if !errors.Is(errBB, ErrInfeasible) {
				t.Fatalf("trial %d: exhaustive says infeasible, B&B says %v", trial, errBB)
			}
			continue
		}
		if errBB != nil {
			t.Fatalf("trial %d: B&B failed: %v (exhaustive found %v)", trial, errBB, want.Cost)
		}
		if math.Abs(got.Cost-want.Cost) > 1e-6 {
			t.Fatalf("trial %d: B&B cost %v != exhaustive %v", trial, got.Cost, want.Cost)
		}
		if !got.Exact {
			t.Fatalf("trial %d: B&B should prove optimality on tiny instances", trial)
		}
		if got.LowerBound > got.Cost+1e-6 {
			t.Fatalf("trial %d: lower bound %v exceeds cost %v", trial, got.LowerBound, got.Cost)
		}
	}
}

func TestSolveNeverBeatsGreedyUpperBound(t *testing.T) {
	rng := workload.NewRand(7)
	for trial := 0; trial < 15; trial++ {
		ins := workload.Instance(rng, workload.InstanceConfig{Bidders: 12, Needy: 4,
			DemandLo: 2, DemandHi: 8, UnitsLo: 1, UnitsHi: 4})
		greedy, err := core.SSAM(ins, core.Options{SkipCertificate: true})
		if err != nil {
			t.Fatalf("trial %d: greedy failed: %v", trial, err)
		}
		opt, err := Solve(ins, Options{})
		if err != nil {
			t.Fatalf("trial %d: solve failed: %v", trial, err)
		}
		if opt.Cost > greedy.SocialCost+1e-6 {
			t.Fatalf("trial %d: optimum %v worse than greedy %v", trial, opt.Cost, greedy.SocialCost)
		}
		if opt.Exact && opt.Cost > 0 {
			ratio := greedy.SocialCost / opt.Cost
			cert := certRatio(t, ins)
			if ratio > cert+1e-6 {
				t.Fatalf("trial %d: greedy/optimal ratio %v exceeds certified ratio %v", trial, ratio, cert)
			}
		}
	}
}

func certRatio(t *testing.T, ins *core.Instance) float64 {
	t.Helper()
	out, err := core.SSAM(ins, core.Options{})
	if err != nil {
		t.Fatalf("SSAM with certificate failed: %v", err)
	}
	return out.Dual.Ratio()
}

func TestSolveWinnersAreFeasible(t *testing.T) {
	rng := workload.NewRand(99)
	ins := workload.Instance(rng, workload.InstanceConfig{Bidders: 10, Needy: 3,
		DemandLo: 2, DemandHi: 6, UnitsLo: 1, UnitsHi: 3})
	res, err := Solve(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := &core.Outcome{Winners: res.Winners, Payments: map[int]float64{}}
	if err := core.VerifyFeasible(ins, out); err != nil {
		t.Fatal(err)
	}
}

func TestSolveInfeasibleInstance(t *testing.T) {
	ins := &core.Instance{
		Demand: []int{5},
		Bids: []core.Bid{
			{Bidder: 1, Price: 1, Covers: []int{0}, Units: 1},
		},
	}
	if _, err := Solve(ins, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if _, err := SolveExhaustive(ins); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible from exhaustive, got %v", err)
	}
}

func TestSolveZeroDemand(t *testing.T) {
	ins := &core.Instance{Demand: []int{0}, Bids: []core.Bid{
		{Bidder: 1, Price: 3, Covers: []int{0}, Units: 1},
	}}
	res, err := Solve(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || len(res.Winners) != 0 {
		t.Fatalf("want empty zero-cost solution, got %+v", res)
	}
}

func TestLowerBoundIsValid(t *testing.T) {
	rng := workload.NewRand(5)
	for trial := 0; trial < 10; trial++ {
		ins := workload.Instance(rng, workload.InstanceConfig{Bidders: 8, Needy: 3,
			DemandLo: 1, DemandHi: 5, UnitsLo: 1, UnitsHi: 3})
		lb, err := LowerBound(ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := Solve(ins, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lb > opt.Cost+1e-6 {
			t.Fatalf("trial %d: LP bound %v exceeds ILP optimum %v", trial, lb, opt.Cost)
		}
	}
}

func TestLowerBoundValidatesInstance(t *testing.T) {
	// Bid 1 covers needy index 99 of a one-service instance.
	ins := &core.Instance{Demand: []int{5}, Bids: []core.Bid{
		{Bidder: 1, Price: 5, Covers: []int{0}, Units: 5},
		{Bidder: 2, Price: 1, Covers: []int{99}, Units: 1},
	}}
	const want = "optimal: core: bid 1 covers out-of-range needy microservice 99"
	if lb, err := LowerBound(ins); err == nil || err.Error() != want {
		t.Fatalf("LowerBound = %v, %v; want error %q", lb, err, want)
	}
	if _, err := Solve(ins, Options{}); err == nil || err.Error() != want {
		t.Fatalf("Solve error %v, want %q", err, want)
	}
}

func TestSolveRespectsNodeBudget(t *testing.T) {
	rng := workload.NewRand(12)
	ins := workload.Instance(rng, workload.InstanceConfig{Bidders: 30, Needy: 8,
		DemandLo: 4, DemandHi: 12, UnitsLo: 1, UnitsHi: 3})
	res, err := Solve(ins, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBound > res.Cost+1e-6 {
		t.Fatalf("truncated solve reported bound %v above incumbent %v", res.LowerBound, res.Cost)
	}
}

func TestSolveExhaustiveRejectsLargeInstances(t *testing.T) {
	ins := &core.Instance{Demand: []int{1}}
	for b := 1; b <= 20; b++ {
		ins.Bids = append(ins.Bids, core.Bid{Bidder: b, Price: 1, Covers: []int{0}, Units: 1})
	}
	if _, err := SolveExhaustive(ins); err == nil {
		t.Fatal("want size-limit error")
	}
}
