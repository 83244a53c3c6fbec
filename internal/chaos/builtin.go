package chaos

import (
	"fmt"
	"sort"

	"edgeauction/internal/platform"
)

// Builtin returns the named built-in scenario (a fresh copy, safe to
// mutate) or an error naming the alternatives.
func Builtin(name string) (*Scenario, error) {
	if build, ok := builtins[name]; ok {
		return build(), nil
	}
	return nil, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, BuiltinNames())
}

// BuiltinNames lists the built-in scenarios in sorted order.
func BuiltinNames() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var builtins = map[string]func() *Scenario{
	"churn":      churnScenario,
	"faults":     faultsScenario,
	"capacity":   capacityScenario,
	"federation": federationScenario,
	"crash":      crashScenario,
	"pipeline":   pipelineScenario,
	"overload":   overloadScenario,
}

// churnScenario is the main soak scenario: 250 rounds of light randomized churn
// over eight capacity-limited agents, periodic demand spikes, and a few
// scripted kills — enough traffic to exercise every fault path while the
// overwhelming majority of rounds still clear.
func churnScenario() *Scenario {
	return New("churn").
		WithSeed(42).
		WithRounds(250).
		WithDeadline(40).
		WithAgents(8, 900).
		WithChurn(ChurnSpec{
			CrashProb: 0.01, DelayProb: 0.02, SlowProb: 0.01, AbstainProb: 0.02,
			RejoinAfter: 2,
		}).
		WithDemand(DemandSpec{SpikeEvery: 50, SpikeFactor: 3}).
		On(30, 3, ActReset).
		On(90, 5, ActLeave).
		On(120, 5, ActJoin).
		On(150, 1, ActCrash).
		SpikeAt(200, 4)
}

// faultsScenario leans hard on the fault paths: every round has an
// expected casualty, and scripted events pile several faults into the
// same rounds.
func faultsScenario() *Scenario {
	return New("faults").
		WithSeed(7).
		WithRounds(120).
		WithDeadline(40).
		WithAgents(10, 0).
		WithChurn(ChurnSpec{
			CrashProb: 0.03, DelayProb: 0.05, SlowProb: 0.03, AbstainProb: 0.04,
			RejoinAfter: 1,
		}).
		WithDemand(DemandSpec{NeedyLo: 2, NeedyHi: 5, DemandLo: 1, DemandHi: 4}).
		On(10, 1, ActCrash).
		On(10, 2, ActDelay).
		On(10, 3, ActSlow).
		On(40, 4, ActReset).
		On(40, 5, ActAbstain).
		On(80, 6, ActLeave).
		On(100, 6, ActJoin)
}

// capacityScenario starves the market: tiny lifetime capacities Θ and
// recurring demand spikes drive ψ updates, capacity-based exclusions,
// and eventually infeasible rounds — the auditor must track the dual
// state through all of it.
func capacityScenario() *Scenario {
	return New("capacity").
		WithSeed(3).
		WithRounds(80).
		WithDeadline(40).
		WithAgents(6, 24).
		WithAgent(AgentSpec{ID: 7, Capacity: 0, Join: 40}).
		WithChurn(ChurnSpec{AbstainProb: 0.05}).
		WithDemand(DemandSpec{NeedyLo: 2, NeedyHi: 3, DemandLo: 1, DemandHi: 2, SpikeEvery: 20, SpikeFactor: 2})
}

// crashScenario is soak-equivalence's crash gate: 60 rounds over six
// capacity-limited agents with the PLATFORM process killed at every
// scripted crash point — mid-gather (round lost before logging),
// pre-announce (logged but unannounced), post-announce (announced and
// logged) — several times each, recovering through snapshot + WAL-suffix
// replay. Capacities are tight enough that ψ is non-trivial when the
// crashes hit, so recovery must reproduce real dual state, not zeros.
func crashScenario() *Scenario {
	return New("crash").
		WithSeed(19).
		WithRounds(60).
		WithDeadline(40).
		WithAgents(6, 60).
		WithDemand(DemandSpec{NeedyLo: 2, NeedyHi: 3, DemandLo: 1, DemandHi: 2, SpikeEvery: 15, SpikeFactor: 2}).
		CrashPlatformAt(5, platform.CrashMidGather).
		CrashPlatformAt(12, platform.CrashPreAnnounce).
		CrashPlatformAt(23, platform.CrashPostAnnounce).
		CrashPlatformAt(24, platform.CrashMidGather).
		CrashPlatformAt(41, platform.CrashPreAnnounce).
		CrashPlatformAt(60, platform.CrashPostAnnounce)
}

// pipelineScenario is soak-equivalence's overlap-determinism gate: 120
// rounds over eight capacity-limited agents cleared once serially and
// once through the pipelined round engine with a real overlap window.
// Capacities and recurring spikes keep ψ non-trivial, so the
// byte-compared WALs carry real dual state, not zeros. Any reordering the overlap leaked into the
// durable record — a bid attributed across rounds, a WAL append racing
// an announce — shows up as a byte diff.
func pipelineScenario() *Scenario {
	return New("pipeline").
		WithSeed(29).
		WithRounds(120).
		WithDeadline(40).
		WithAgents(8, 200).
		WithDemand(DemandSpec{NeedyLo: 2, NeedyHi: 4, DemandLo: 1, DemandHi: 3, SpikeEvery: 25, SpikeFactor: 2}).
		WithPipelined()
}

// overloadScenario is the workload-driven soak scenario:
// demand is NOT drawn i.i.d. — it is the precomputed schedule of the
// cascading-overload service graph simulated at 3× work, bridged through
// the §III demand estimator. The hot fan-in service saturates, so the
// platform clears sustained topology-shaped demand under light churn
// while the auditor shadow-replays every round. Its rerun is
// byte-identical like every scenario's: the schedule is a pure function
// of the seed.
func overloadScenario() *Scenario {
	return New("overload").
		WithSeed(23).
		WithRounds(120).
		WithDeadline(40).
		WithAgents(8, 600).
		WithChurn(ChurnSpec{CrashProb: 0.01, DelayProb: 0.01, AbstainProb: 0.02, RejoinAfter: 2}).
		// Demand capped at 4 units like the i.i.d. scenarios: eight lightly
		// churned agents can cover it, so most rounds clear and the soak
		// exercises the mechanism, not just the infeasible path.
		WithWorkload(WorkloadSpec{Topology: "overload", WorkScale: 3, MaxDemand: 4})
}

// federationScenario interleaves a three-cloud federated round after
// every tenth platform round, with the first cloud chronically
// under-supplied so cross-cloud borrowing actually happens.
func federationScenario() *Scenario {
	return New("federation").
		WithSeed(11).
		WithRounds(150).
		WithDeadline(40).
		WithAgents(8, 600).
		WithChurn(ChurnSpec{CrashProb: 0.01, DelayProb: 0.01, AbstainProb: 0.02, RejoinAfter: 2}).
		WithDemand(DemandSpec{}).
		WithFederation(10, 3)
}
