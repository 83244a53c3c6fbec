package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickScenario is a compressed churn scenario sized for unit tests:
// high enough fault probabilities that 30 rounds exercise every action,
// short enough deadlines that the test stays fast.
func quickScenario() *Scenario {
	return New("quick").
		WithSeed(5).
		WithRounds(30).
		WithDeadline(25).
		WithAgents(6, 300).
		WithChurn(ChurnSpec{CrashProb: 0.03, DelayProb: 0.06, SlowProb: 0.03, AbstainProb: 0.05, RejoinAfter: 1}).
		WithDemand(DemandSpec{SpikeEvery: 10, SpikeFactor: 2}).
		On(8, 2, ActReset).
		On(15, 3, ActDelay).
		On(20, 4, ActCrash)
}

// baseline runs sc's audited baseline pass alone, in a fresh working dir.
func baseline(t *testing.T, sc *Scenario, env Env) *Verdict {
	t.Helper()
	env.Dir = t.TempDir()
	res, err := Equivalent(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	return &res.Baseline
}

// assertVariantsMatch runs sc with the given variants and requires a clean
// baseline and every variant to match it: same WAL bytes, same audit log
// where the auditor watched, same final ψ/χ state hash, same summary.
func assertVariantsMatch(t *testing.T, sc *Scenario, env Env, variants ...Variant) *EquivalenceResult {
	t.Helper()
	env.Dir = t.TempDir()
	res, err := Equivalent(sc, env, variants...)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	base := res.Baseline
	if !base.Audited || len(base.Violations) != 0 || base.Summary == nil {
		t.Fatalf("baseline audited=%v, violations %v, summary %v", base.Audited, base.Violations, base.Summary)
	}
	for _, v := range res.Variants {
		if !v.WALMatch {
			t.Errorf("%s: WAL differs from the baseline's", v.Name)
		}
		if !v.AuditMatch {
			t.Errorf("%s: audit log differs from the baseline's", v.Name)
		}
		if v.Hash != base.Hash {
			t.Errorf("%s: state hash %s, baseline %s", v.Name, v.Hash, base.Hash)
		}
		if v.Summary == nil || *v.Summary != *base.Summary {
			t.Errorf("%s: summary %+v, baseline %+v", v.Name, v.Summary, *base.Summary)
		}
		if !v.Match {
			t.Errorf("%s: Match=false: %+v", v.Name, v)
		}
	}
	if !res.Match {
		t.Errorf("overall Match=false")
	}
	return res
}

// TestRunDeterministic runs the scenario with its rerun variant and
// requires a byte-identical audit log and WAL, zero violations, and
// evidence that the fault paths actually fired in both passes.
func TestRunDeterministic(t *testing.T) {
	sc := quickScenario()
	res := assertVariantsMatch(t, sc, Env{}, ScenarioVariants(sc, 0)...)
	if len(res.Variants) != 1 || res.Variants[0].Name != "rerun" || !res.Variants[0].Audited {
		t.Fatalf("variants %+v, want one audited rerun", res.Variants)
	}
	for _, v := range []Verdict{res.Baseline, res.Variants[0]} {
		if v.Rounds != 30 || v.Checks == 0 {
			t.Fatalf("%s audited %d rounds with %d checks, want 30 rounds", v.Name, v.Rounds, v.Checks)
		}
		for _, act := range []string{ActBid, ActCrash, ActDelay, ActSlow, ActAbstain} {
			if v.Actions[act] == 0 {
				t.Errorf("%s never exercised %q (actions %v)", v.Name, act, v.Actions)
			}
		}
	}
}

// TestBrokenPaymentsCaught enables the deliberately corrupt payment rule
// and requires the auditor to flag it in the very first round that grants
// an award, dumping the evidence file for repro.
func TestBrokenPaymentsCaught(t *testing.T) {
	dir := t.TempDir()
	// Demand is kept trivially coverable so round 1 is guaranteed to grant
	// awards — the corruption must then be flagged in round 1 itself.
	sc := New("broken").
		WithSeed(9).
		WithRounds(10).
		WithDeadline(25).
		WithAgents(5, 0).
		WithDemand(DemandSpec{NeedyLo: 2, NeedyHi: 2, DemandLo: 1, DemandHi: 1})
	full, err := Equivalent(sc, Env{Dir: t.TempDir(), BreakPayments: true, DumpDir: dir}, ScenarioVariants(sc, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	if full.Match || len(full.Variants) != 0 {
		t.Fatalf("violated baseline: Match=%v with %d variants run, want false and none", full.Match, len(full.Variants))
	}
	res := full.Baseline
	if len(res.Violations) == 0 {
		t.Fatal("corrupt payments went unnoticed")
	}
	v := res.Violations[0]
	if v.Invariant != "payment" {
		t.Fatalf("first violation is %q, want payment: %v", v.Invariant, v)
	}
	if v.Round != 1 {
		t.Fatalf("corruption caught in round %d, want round 1 (within one round of the fault)", v.Round)
	}
	if res.Rounds >= 10 {
		t.Fatalf("run did not stop at the violation budget: audited %d rounds", res.Rounds)
	}
	if len(res.Dumps) != 1 {
		t.Fatalf("expected one evidence dump, got %v", res.Dumps)
	}
	data, err := os.ReadFile(res.Dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"scenario": "broken"`, `"round": 1`, `"invariant": "payment"`, `"kind": "round_close"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("dump %s missing %s", res.Dumps[0], want)
		}
	}
}

// TestCapacityScenario exhausts tiny lifetime capacities: the auditor
// must track ψ/χ through exclusions and (eventually) infeasible rounds
// without a single violation.
func TestCapacityScenario(t *testing.T) {
	sc, err := Builtin("capacity")
	if err != nil {
		t.Fatal(err)
	}
	sc.Rounds = 40
	sc.BidDeadlineMS = 25
	var log bytes.Buffer
	res := baseline(t, sc, Env{AuditLog: &log})
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !strings.Contains(log.String(), `"psi"`) {
		t.Error("capacity scenario never produced a ψ update")
	}
	if res.Summary == nil || res.Summary.Rounds != 40 {
		t.Fatalf("summary = %+v, want 40 rounds", res.Summary)
	}
}

// TestFederationScenario interleaves federated rounds and audits them.
func TestFederationScenario(t *testing.T) {
	sc, err := Builtin("federation")
	if err != nil {
		t.Fatal(err)
	}
	sc.Rounds = 20
	sc.Federation.Every = 5
	sc.BidDeadlineMS = 25
	var log bytes.Buffer
	res := assertVariantsMatch(t, sc, Env{AuditLog: &log}, ScenarioVariants(sc, 0)...)
	if res.Baseline.FedRounds != 4 || res.Variants[0].FedRounds != 4 {
		t.Fatalf("fed rounds = %d/%d, want 4", res.Baseline.FedRounds, res.Variants[0].FedRounds)
	}
	if !strings.Contains(log.String(), `"kind":"federation"`) {
		t.Error("audit log has no federation lines")
	}
}

// TestScenarioValidation exercises the scenario schema guards.
func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "no name"},
		{"no rounds", func(s *Scenario) { s.Rounds = 0 }, "rounds"},
		{"no agents", func(s *Scenario) { s.Agents = nil }, "no agents"},
		{"dup agent", func(s *Scenario) { s.Agents = append(s.Agents, AgentSpec{ID: 1}) }, "duplicate"},
		{"bad id", func(s *Scenario) { s.Agents[0].ID = -1 }, "positive"},
		{"probs", func(s *Scenario) { s.Churn.CrashProb = 0.9; s.Churn.DelayProb = 0.9 }, "sum"},
		{"event round", func(s *Scenario) { s.Events = []EventSpec{{Round: 99, Agent: 1, Action: ActCrash}} }, "outside"},
		{"event agent", func(s *Scenario) { s.Events = []EventSpec{{Round: 1, Agent: 42, Action: ActCrash}} }, "unknown agent"},
		{"event action", func(s *Scenario) { s.Events = []EventSpec{{Round: 1, Agent: 1, Action: "explode"}} }, "unknown action"},
		{"federation", func(s *Scenario) { s.Federation = &FederationSpec{Every: 0} }, "interval"},
	}
	for _, tc := range cases {
		sc := New("v").WithRounds(10).WithAgents(3, 0)
		tc.mut(sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if err := New("ok").WithRounds(5).WithAgents(2, 10).Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

// TestBuiltinScenariosMatchTestdata keeps the committed JSON scenario
// files in lockstep with the builder definitions: cmd/chaos -scenario
// path/to/file.json must behave exactly like the named builtin.
func TestBuiltinScenariosMatchTestdata(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("builtin %s invalid: %v", name, err)
		}
		want, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "scenarios", name+".json")
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("builtin %s has no committed JSON twin: %v", name, err)
		}
		if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
			t.Errorf("%s drifted from builtin definition; regenerate with: go run ./cmd/chaos -scenario %s -print > %s", path, name, path)
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Name != name {
			t.Errorf("%s loads as %q", path, loaded.Name)
		}
	}
}
