package chaos

import (
	"reflect"
	"testing"
)

// TestWorkloadScheduleDeterministic checks Validate precomputes the
// workload demand schedule as a pure function of the scenario: two
// validations (fresh copies) produce identical schedules, every round
// has demand, and the cap holds.
func TestWorkloadScheduleDeterministic(t *testing.T) {
	build := func() *Scenario {
		sc, err := Builtin("overload")
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	a, b := build(), build()
	if len(a.wlDemand) != a.Rounds {
		t.Fatalf("schedule rounds = %d, want %d", len(a.wlDemand), a.Rounds)
	}
	if !reflect.DeepEqual(a.wlDemand, b.wlDemand) {
		t.Fatal("workload demand schedule differs across validations of the same scenario")
	}
	needySum := 0
	for tr, d := range a.wlDemand {
		if len(d) == 0 {
			t.Fatalf("round %d has empty demand", tr+1)
		}
		for _, u := range d {
			if u < 1 || u > 6 {
				t.Fatalf("round %d demand %v outside [1, cap 6]", tr+1, d)
			}
		}
		needySum += len(d)
	}
	// The overloaded graph must actually generate topology-driven demand,
	// not just the idle-round fallback.
	if needySum <= a.Rounds {
		t.Fatalf("schedule carries %d needy entries over %d rounds — the graph never overloads", needySum, a.Rounds)
	}
	// scenarioDemand serves the schedule, copied.
	d1 := scenarioDemand(a, 5)
	if !reflect.DeepEqual(d1, a.wlDemand[4]) {
		t.Fatalf("scenarioDemand(5) = %v, want schedule entry %v", d1, a.wlDemand[4])
	}
	d1[0] = -99
	if a.wlDemand[4][0] == -99 {
		t.Fatal("scenarioDemand returned the schedule's backing array, not a copy")
	}
}

// TestWorkloadScenarioValidation rejects bad workload specs.
func TestWorkloadScenarioValidation(t *testing.T) {
	base := func() *Scenario { return New("wl").WithRounds(5).WithAgents(2, 10) }
	if err := base().WithWorkload(WorkloadSpec{Topology: "no-such-graph"}).Validate(); err == nil {
		t.Fatal("unknown workload topology accepted")
	}
	if err := base().WithWorkload(WorkloadSpec{Topology: "overload", WorkScale: -1}).Validate(); err == nil {
		t.Fatal("negative work scale accepted")
	}
	if err := base().WithWorkload(WorkloadSpec{Topology: "overload", MaxDemand: -2}).Validate(); err == nil {
		t.Fatal("negative demand cap accepted")
	}
	if err := base().WithWorkload(WorkloadSpec{Topology: "three-tier"}).Validate(); err != nil {
		t.Fatalf("valid workload spec rejected: %v", err)
	}
}

// TestWorkloadScenarioJSONRoundTrip checks the workload field survives
// the JSON scenario format and the schedule is rebuilt on load.
func TestWorkloadScenarioJSONRoundTrip(t *testing.T) {
	sc, err := Builtin("overload")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload == nil || back.Workload.Topology != "overload" || back.Workload.WorkScale != 3 {
		t.Fatalf("workload spec lost in round trip: %+v", back.Workload)
	}
	if !reflect.DeepEqual(back.wlDemand, sc.wlDemand) {
		t.Fatal("loaded scenario rebuilt a different demand schedule")
	}
}

// TestWorkloadScenarioRunsClean drives a short workload-driven scenario
// through the real platform with its rerun variant: the baseline must be
// audit-clean and the rerun byte-identical — the in-process version of
// `chaos -scenario overload`.
func TestWorkloadScenarioRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real platform")
	}
	sc := New("overload-short").
		WithSeed(23).
		WithRounds(12).
		WithDeadline(40).
		WithAgents(4, 200).
		WithWorkload(WorkloadSpec{Topology: "overload", WorkScale: 3})
	res := assertVariantsMatch(t, sc, Env{}, ScenarioVariants(sc, 0)...)
	if res.Baseline.Rounds != 12 {
		t.Fatalf("audited %d rounds, want 12", res.Baseline.Rounds)
	}
}
