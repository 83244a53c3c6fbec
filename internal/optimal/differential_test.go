package optimal

import (
	"math"
	"testing"

	"edgeauction/internal/core"
	"edgeauction/internal/workload"
)

// fig5aStage mirrors the per-round instance shape of the Figure 5(a) sweep
// (§V-A): needy services are a fifth of the bidders, J=2 bids per bidder,
// demand scales with the request level and per-bid units with its square
// root, and the reserve ladder keeps every round coverable.
func fig5aStage(bidders, requests int) workload.InstanceConfig {
	factor := float64(requests) / 100
	needy := max(bidders/5, 1)
	return workload.InstanceConfig{
		Bidders:       bidders,
		Needy:         needy,
		BidsPerBidder: 2,
		DemandLo:      max(int(10*factor), 1),
		DemandHi:      max(int(40*factor), 1),
		UnitsLo:       1,
		UnitsHi:       max(int(10*math.Sqrt(factor)+0.5), 1),
		CoverLo:       1,
		CoverHi:       min(4, needy),
	}
}

// TestSolveMatchesColdTree holds the warm-started, reduced-cost-fixing
// search to the pre-change cold tree (reference_test.go) on random
// Figure 5(a)-shaped instances: equal cost whenever both close, and each
// side's proven lower bound below the other's exact cost.
func TestSolveMatchesColdTree(t *testing.T) {
	sizes := []int{10, 15, 20, 25}
	opts := Options{MaxNodes: 400}
	rng := workload.NewRand(2024)
	bothExact := 0
	const instances = 200
	for trial := 0; trial < instances; trial++ {
		ins := workload.Instance(rng, fig5aStage(sizes[trial%len(sizes)], 100*(1+trial%2)))
		got, err := Solve(ins, opts)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		want, err := refSolve(ins, opts)
		if err != nil {
			t.Fatalf("trial %d: cold tree: %v", trial, err)
		}
		if err := core.VerifyFeasible(ins, &core.Outcome{Winners: got.Winners}); err != nil {
			t.Fatalf("trial %d: winners infeasible: %v", trial, err)
		}
		var sum float64
		for _, j := range got.Winners {
			sum += ins.Bids[j].Price
		}
		if math.Abs(sum-got.Cost) > 1e-6 {
			t.Fatalf("trial %d: Cost %v but winners' prices sum to %v", trial, got.Cost, sum)
		}
		if got.Exact && want.Exact {
			bothExact++
			if math.Abs(got.Cost-want.Cost) > 1e-6 {
				t.Fatalf("trial %d: cost %v, cold tree %v", trial, got.Cost, want.Cost)
			}
		}
		if want.Exact && got.LowerBound > want.Cost+1e-6 {
			t.Fatalf("trial %d: lower bound %v above cold tree's optimum %v", trial, got.LowerBound, want.Cost)
		}
		if got.Exact && want.LowerBound > got.Cost+1e-6 {
			t.Fatalf("trial %d: cold tree's lower bound %v above optimum %v", trial, want.LowerBound, got.Cost)
		}
	}
	if bothExact < instances/2 {
		t.Fatalf("only %d of %d instances closed on both sides; the comparison is too thin", bothExact, instances)
	}
	t.Logf("%d of %d instances closed by both trees", bothExact, instances)
}
