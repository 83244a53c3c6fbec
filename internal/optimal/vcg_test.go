package optimal

import (
	"errors"
	"math"
	"testing"

	"edgeauction/internal/core"
	"edgeauction/internal/workload"
)

func vcgInstance() *core.Instance {
	return &core.Instance{
		Demand: []int{2, 1},
		Bids: []core.Bid{
			{Bidder: 1, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1},
			{Bidder: 2, Price: 8, TrueCost: 8, Covers: []int{0, 1}, Units: 1},
			{Bidder: 3, Price: 30, TrueCost: 30, Covers: []int{0, 1}, Units: 2},
			{Bidder: 4, Price: 12, TrueCost: 12, Covers: []int{1}, Units: 1},
		},
	}
}

func clearVCG(t *testing.T, ins *core.Instance) *core.Outcome {
	t.Helper()
	out, err := core.RunMechanism(core.MechanismSpec{Name: NameVCG}, ins, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestVCGSpecRoundTrip(t *testing.T) {
	spec, err := core.ParseMechanismSpec("vcg")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != NameVCG || spec.String() != "vcg" {
		t.Fatalf("parsed %+v, renders %q", spec, spec.String())
	}
	if _, err := core.ParseMechanismSpec("vcg:budget=5"); err == nil {
		t.Fatal("vcg takes no parameters")
	}
}

func TestVCGMatchesOptimalAllocation(t *testing.T) {
	ins := vcgInstance()
	out := clearVCG(t, ins)
	opt, err := Solve(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.SocialCost-opt.Cost) > 1e-9 {
		t.Fatalf("VCG allocation cost %v != optimum %v", out.SocialCost, opt.Cost)
	}
	if err := core.VerifyFeasible(ins, out); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyIndividualRationality(ins, out, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVCGPaymentsAreClarkePivots(t *testing.T) {
	// Two suppliers for one unit: winner is the cheaper, paid the
	// runner-up's price (second-price auction special case).
	ins := &core.Instance{
		Demand: []int{1},
		Bids: []core.Bid{
			{Bidder: 1, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1},
			{Bidder: 2, Price: 25, TrueCost: 25, Covers: []int{0}, Units: 1},
		},
	}
	out := clearVCG(t, ins)
	if len(out.Winners) != 1 || out.Winners[0] != 0 {
		t.Fatalf("winner = %v, want bid 0", out.Winners)
	}
	if math.Abs(out.Payments[0]-25) > 1e-9 {
		t.Fatalf("VCG payment = %v, want second price 25", out.Payments[0])
	}
}

func TestVCGPivotalBidder(t *testing.T) {
	// Single supplier: pivotal; payment must still be at least its price.
	ins := &core.Instance{
		Demand: []int{1},
		Bids: []core.Bid{
			{Bidder: 1, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1},
		},
	}
	out := clearVCG(t, ins)
	if out.Payments[0] < 10 {
		t.Fatalf("pivotal VCG payment %v below price", out.Payments[0])
	}
}

func TestVCGInfeasibleIsErrInfeasible(t *testing.T) {
	ins := &core.Instance{
		Demand: []int{2},
		Bids:   []core.Bid{{Bidder: 1, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1}},
	}
	_, err := core.RunMechanism(core.MechanismSpec{Name: NameVCG}, ins, core.Options{})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("want core.ErrInfeasible, got %v", err)
	}
}

func TestVCGTruthfulOnSmallInstances(t *testing.T) {
	rng := workload.NewRand(3)
	for trial := 0; trial < 10; trial++ {
		ins := workload.Instance(rng, workload.InstanceConfig{
			Bidders: 5, Needy: 2, DemandLo: 1, DemandHi: 3, BidsPerBidder: 1,
			UnitsLo: 1, UnitsHi: 2,
		})
		truthful := clearVCG(t, ins)
		for target := 0; target < len(ins.Bids)-1; target++ { // skip reserve
			base := truthful.Utility(ins, target)
			for _, factor := range []float64{0.5, 1.5} {
				dev := ins.Clone()
				dev.Bids[target].Price = ins.Bids[target].TrueCost * factor
				out := clearVCG(t, dev)
				utility := 0.0
				if out.Won(target) {
					utility = out.Payments[target] - ins.Bids[target].TrueCost
				}
				if utility > base+1e-6 {
					t.Fatalf("trial %d: VCG profitable deviation for bid %d x%v: %v > %v",
						trial, target, factor, utility, base)
				}
			}
		}
	}
}
