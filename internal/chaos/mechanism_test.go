package chaos

import (
	"bytes"
	"sync"
	"testing"

	"edgeauction/internal/core"
)

// This file proves the per-mechanism auditor generalization both ways:
// honest non-SSAM mechanisms run violation-free through the full platform
// (positive), and deliberately broken mechanisms trip exactly the
// universal invariants that are supposed to catch them (negative). The
// broken mechanisms are registered under test-only names so the real
// registry entries stay clean.

var registerTestMechanisms sync.Once

func testMechanisms() {
	registerTestMechanisms.Do(func() {
		// toy-undercut pays winners 90% of their reported price: a direct
		// individual-rationality violation on every feasible round.
		core.RegisterMechanism("toy-undercut", func(core.MechanismSpec) (core.Mechanism, error) {
			return undercutMechanism{}, nil
		})
		// rigged-da is the real double auction with a settlement reporter
		// that over-reports penalty income past the configured rate bound.
		core.RegisterMechanism("rigged-da", func(spec core.MechanismSpec) (core.Mechanism, error) {
			var cfg core.DoubleAuctionConfig
			if spec.DoubleAuction != nil {
				cfg = *spec.DoubleAuction
			}
			return riggedDA{core.NewDoubleAuction(cfg)}, nil
		})
	})
}

type undercutMechanism struct{}

func (undercutMechanism) Name() string { return "toy-undercut" }

func (undercutMechanism) Clear(ins *core.Instance, opts core.Options) (*core.Outcome, error) {
	out, err := core.SSAM(ins, opts)
	if err != nil {
		return nil, err
	}
	out.Dual = nil // no certificate promise
	for _, w := range out.Winners {
		out.Payments[w] = 0.9 * ins.Bids[w].Price
	}
	return out, nil
}

type riggedDA struct {
	*core.DoubleAuction
}

func (r riggedDA) Name() string { return "rigged-da" }

// LastSettlement over-reports penalties by a flat 1.0 — above the
// PenaltyRate × defaulted-value bound even on rounds with no defaults.
func (r riggedDA) LastSettlement() *core.Settlement {
	st := r.DoubleAuction.LastSettlement()
	if st == nil {
		return nil
	}
	rig := *st
	rig.Penalties += 1
	return &rig
}

// mechScenario is a small all-feasible scenario cleared through spec.
func mechScenario(name string, spec core.MechanismSpec) *Scenario {
	return New(name).
		WithSeed(11).
		WithRounds(8).
		WithDeadline(25).
		WithAgents(6, 0).
		WithDemand(DemandSpec{NeedyLo: 2, NeedyHi: 2, DemandLo: 1, DemandHi: 1}).
		WithMechanism(spec)
}

// TestDoubleAuctionScenarioClean: the honest double auction must survive
// the full platform + auditor without a single violation, with the
// penalty-bound invariant actually exercised and the SSAM-only
// certificate/critical-value checks switched off.
func TestDoubleAuctionScenarioClean(t *testing.T) {
	var log bytes.Buffer
	res := baseline(t, mechScenario("da-clean", core.MechanismSpec{Name: core.NameDoubleAuction}), Env{AuditLog: &log})
	if len(res.Violations) != 0 {
		t.Fatalf("honest double auction flagged: %v", res.Violations)
	}
	if res.Rounds != 8 {
		t.Fatalf("audited %d rounds, want 8", res.Rounds)
	}
	if res.Checks == 0 {
		t.Fatal("no checks ran")
	}
}

// TestPostedPriceScenarioClean: same for the posted-price mechanism. Its
// strict no-escalation rule may drop rounds as infeasible; dropped rounds
// must still audit clean.
func TestPostedPriceScenarioClean(t *testing.T) {
	res := baseline(t, mechScenario("pp-clean", core.MechanismSpec{Name: core.NamePostedPrice}), Env{})
	if len(res.Violations) != 0 {
		t.Fatalf("honest posted price flagged: %v", res.Violations)
	}
}

// TestFixedPriceScenarioClean: same for the fixed-price mechanism. Its
// universal individual-rationality check is the one that catches a
// winner paid only for the coverage it adds rather than its whole bid.
func TestFixedPriceScenarioClean(t *testing.T) {
	res := baseline(t, mechScenario("fp-clean", core.MechanismSpec{Name: core.NameFixedPrice, UnitPrice: 20}), Env{})
	if len(res.Violations) != 0 {
		t.Fatalf("honest fixed price flagged: %v", res.Violations)
	}
	if res.Rounds != 8 || res.Checks == 0 {
		t.Fatalf("audited %d rounds with %d checks, want 8 rounds", res.Rounds, res.Checks)
	}
}

// TestUndercutMechanismTripsIR: a mechanism paying below the report must
// be flagged by the universal individual-rationality invariant — the
// negative control proving the generalized auditor still bites.
func TestUndercutMechanismTripsIR(t *testing.T) {
	testMechanisms()
	res := baseline(t, mechScenario("toy-ir", core.MechanismSpec{Name: "toy-undercut"}), Env{})
	if len(res.Violations) == 0 {
		t.Fatal("undercutting mechanism went unnoticed")
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "individual-rationality" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no individual-rationality violation among %v", res.Violations)
	}
}

// TestRiggedSettlementTripsPenaltyBound: a settlement reporter whose
// penalty income exceeds the rate bound must trip the per-mechanism
// penalty-bound invariant.
func TestRiggedSettlementTripsPenaltyBound(t *testing.T) {
	testMechanisms()
	res := baseline(t, mechScenario("rigged-da", core.MechanismSpec{Name: "rigged-da"}), Env{})
	if len(res.Violations) == 0 {
		t.Fatal("rigged settlement went unnoticed")
	}
	for _, v := range res.Violations {
		if v.Invariant != "penalty-bound" {
			t.Fatalf("unexpected invariant %q (want only penalty-bound): %v", v.Invariant, v)
		}
	}
}

// TestMechanismScenarioDeterministic: a rerun of a non-SSAM scenario
// must still reproduce the baseline's audit log and WAL byte for byte —
// mechanism dispatch must not leak nondeterminism into the soak gate.
func TestMechanismScenarioDeterministic(t *testing.T) {
	sc := mechScenario("da-det", core.MechanismSpec{Name: core.NameDoubleAuction})
	res := assertVariantsMatch(t, sc, Env{}, ScenarioVariants(sc, 0)...)
	if len(res.Variants) != 1 || !res.Variants[0].Audited {
		t.Fatalf("variants %+v, want one audited rerun", res.Variants)
	}
}

// TestScenarioMechanismValidation: a scenario naming an unknown or
// unresolvable mechanism must fail validation before anything starts.
func TestScenarioMechanismValidation(t *testing.T) {
	sc := mechScenario("bad-mech", core.MechanismSpec{Name: "no-such-mechanism"})
	if err := sc.Validate(); err == nil {
		t.Fatal("unknown mechanism passed scenario validation")
	}
	sc2 := mechScenario("bad-budget", core.MechanismSpec{Name: core.NameBudgetedSSAM})
	if err := sc2.Validate(); err == nil {
		t.Fatal("unresolvable budgeted-ssam spec passed scenario validation")
	}
}
