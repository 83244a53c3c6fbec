package optimal

import (
	"errors"
	"testing"

	"edgeauction/internal/core"
	"edgeauction/internal/workload"
)

// registrySpecs holds one spec per registered mechanism. This package
// links both internal/core and the exact solver, so its registry lists
// every production mechanism, VCG included.
var registrySpecs = map[string]core.MechanismSpec{
	core.NameSSAM:          {Name: core.NameSSAM},
	core.NameBudgetedSSAM:  {Name: core.NameBudgetedSSAM, Budget: 60},
	core.NamePostedPrice:   {Name: core.NamePostedPrice},
	core.NameFixedPrice:    {Name: core.NameFixedPrice, UnitPrice: 9},
	core.NameDoubleAuction: {Name: core.NameDoubleAuction},
	NameVCG:                {Name: NameVCG},
}

// TestRegisteredMechanismsHoldUniversalInvariants checks the invariants
// every mechanism promises on seeded instances: a feasible outcome or
// ErrInfeasible, individual rationality (each winner is paid at least
// its price), and determinism (two fresh mechanisms clear identically).
func TestRegisteredMechanismsHoldUniversalInvariants(t *testing.T) {
	for _, name := range core.MechanismNames() {
		spec, ok := registrySpecs[name]
		if !ok {
			t.Errorf("registered mechanism %q has no invariant spec", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			rng := workload.NewRand(7)
			feasible, infeasible := 0, 0
			for trial := 0; trial < 12; trial++ {
				ins := workload.Instance(rng, workload.InstanceConfig{
					Bidders: 4 + rng.Intn(8), Needy: 1 + rng.Intn(3),
					DemandLo: 1, DemandHi: 4, UnitsLo: 1, UnitsHi: 3,
				})
				out, err := core.RunMechanism(spec, ins, core.Options{})
				again, errAgain := core.RunMechanism(spec, ins, core.Options{})
				if (err == nil) != (errAgain == nil) || !out.Equal(again) {
					t.Fatalf("trial %d: two fresh mechanisms disagree (err %v vs %v)", trial, err, errAgain)
				}
				if err != nil && !errors.Is(err, core.ErrInfeasible) {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if out == nil {
					infeasible++
					continue
				}
				// A partial outcome returned with ErrInfeasible must still
				// pay its winners at least their prices.
				if err := core.VerifyIndividualRationality(ins, out, nil); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if err != nil {
					infeasible++
					continue
				}
				feasible++
				if err := core.VerifyFeasible(ins, out); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
			t.Logf("%s: %d feasible, %d infeasible", spec, feasible, infeasible)
			if feasible == 0 {
				t.Fatal("no feasible trial: the invariants were never exercised")
			}
		})
	}
}
