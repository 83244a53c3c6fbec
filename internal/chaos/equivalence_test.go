package chaos

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
)

// crashTestScenario is a small, tight-capacity scenario whose ψ state is
// non-trivial by mid-run, so recovery has real dual state to reproduce.
func crashTestScenario(name string) *Scenario {
	return New(name).
		WithSeed(19).
		WithRounds(14).
		WithDeadline(40).
		WithAgents(4, 30).
		WithDemand(DemandSpec{NeedyLo: 2, NeedyHi: 3, DemandLo: 1, DemandHi: 2, SpikeEvery: 5, SpikeFactor: 2})
}

var crashVariant = Variant{Name: "crash", Loop: LoopCrash}

// TestCrashPointMatrix kills the platform at each scripted crash site in
// turn and asserts the recovered run is byte-identical to an
// uninterrupted one.
func TestCrashPointMatrix(t *testing.T) {
	t.Parallel()
	points := []string{platform.CrashMidGather, platform.CrashPreAnnounce, platform.CrashPostAnnounce}
	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			t.Parallel()
			sc := crashTestScenario("matrix-"+point).CrashPlatformAt(7, point)
			res := assertVariantsMatch(t, sc, Env{}, crashVariant)
			if v := res.Variants[0]; v.Crashes != 1 || v.Recoveries != 1 || v.Audited {
				t.Errorf("crashes=%d recoveries=%d audited=%v, want 1/1 and unaudited", v.Crashes, v.Recoveries, v.Audited)
			}
		})
	}
}

// TestCrashFinalRound kills the platform in the very last round after the
// WAL append: the recovered state alone (no further rounds) must match
// the baseline.
func TestCrashFinalRound(t *testing.T) {
	t.Parallel()
	sc := crashTestScenario("final").CrashPlatformAt(14, platform.CrashPostAnnounce)
	assertVariantsMatch(t, sc, Env{}, crashVariant)
}

// TestCrashWithSnapshots checkpoints every 4 rounds, so the second
// crash's recovery replays only a WAL suffix — and still lands on the
// exact state.
func TestCrashWithSnapshots(t *testing.T) {
	t.Parallel()
	sc := crashTestScenario("snap").
		CrashPlatformAt(6, platform.CrashPreAnnounce).
		CrashPlatformAt(11, platform.CrashMidGather)
	res := assertVariantsMatch(t, sc, Env{}, Variant{Name: "crash", Loop: LoopCrash, SnapshotEvery: 4})
	v := res.Variants[0]
	if v.Snapshots == 0 {
		t.Fatalf("pass wrote no snapshots")
	}
	// The round-11 crash recovers from a snapshot at round 8 or later, so
	// it must NOT have replayed the whole 10-record prefix.
	if v.Replayed >= 10+5 {
		t.Errorf("replayed %d records; snapshots should have cut the suffix", v.Replayed)
	}
}

// TestEquivalentReusedDir runs the same comparison twice in one working
// dir. The second run must start from empty WALs and snapshot dirs rather
// than append to the first run's log and recover from its checkpoints.
func TestEquivalentReusedDir(t *testing.T) {
	t.Parallel()
	sc := crashTestScenario("reuse").
		CrashPlatformAt(6, platform.CrashPreAnnounce).
		CrashPlatformAt(11, platform.CrashMidGather)
	dir := t.TempDir()
	v := Variant{Name: "crash", Loop: LoopCrash, SnapshotEvery: 4}
	var first Verdict
	for run := 1; run <= 2; run++ {
		res, err := Equivalent(sc, Env{Dir: dir}, v)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !res.Match {
			t.Fatalf("run %d diverged: %+v", run, res)
		}
		got := res.Variants[0]
		if got.Crashes != 2 || got.Recoveries != 2 || got.Snapshots == 0 {
			t.Errorf("run %d: %+v, want 2 crashes, 2 recoveries and snapshots", run, got)
		}
		if run == 1 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("run 2 verdict %+v, run 1 %+v", got, first)
		}
	}
}

// TestScenarioVariants pins which variants each builtin scenario gates,
// and that the observing and parallel variants really change the server
// they configure.
func TestScenarioVariants(t *testing.T) {
	t.Parallel()
	names := func(vs []Variant) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.Name)
		}
		return out
	}
	for _, name := range []string{"churn", "overload", "faults", "capacity", "federation"} {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		vs := ScenarioVariants(sc, 10)
		if len(vs) != 1 || vs[0].Name != "rerun" || vs[0].Loop != LoopSerial || vs[0].Configure != nil {
			t.Errorf("audited scenario %s variants %+v, want one plain serial rerun", name, vs)
		}
	}
	crash := ScenarioVariants(crashScenario(), 10)
	if got, want := names(crash), []string{"crash", "untraced", "parallel-payments"}; !reflect.DeepEqual(got, want) {
		t.Errorf("crash scenario variants %v, want %v", got, want)
	}
	if crash[0].Loop != LoopCrash || crash[0].SnapshotEvery != 10 {
		t.Errorf("crash variant %+v", crash[0])
	}
	piped := ScenarioVariants(pipelineScenario(), 10)
	if got, want := names(piped), []string{"pipelined", "untraced", "parallel-payments"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pipeline scenario variants %v, want %v", got, want)
	}
	cfg := platform.ServerConfig{Tracer: &obs.Recorder{}, Audit: platform.NewAuditSink(nil)}
	for _, v := range piped {
		v.Configure(&cfg)
	}
	if cfg.PipelineYield <= 0 || cfg.Tracer != nil || cfg.Audit != nil || cfg.Auction.Options.Parallelism != 4 {
		t.Errorf("configured server %+v, want overlap window, no tracer or auditor, and parallelism 4", cfg)
	}
}

// TestComparisonScenarioNeedsFixedPopulation: a platform restart or a
// pipelined overlap leaves no gap between rounds for churn to act in, so
// Validate refuses the combination instead of running something else.
func TestComparisonScenarioNeedsFixedPopulation(t *testing.T) {
	t.Parallel()
	for name, mut := range map[string]func(*Scenario){
		"churn":      func(s *Scenario) { s.WithChurn(ChurnSpec{CrashProb: 0.1, RejoinAfter: 1}) },
		"event":      func(s *Scenario) { s.On(3, 1, ActAbstain) },
		"late join":  func(s *Scenario) { s.WithAgent(AgentSpec{ID: 9, Join: 4}) },
		"leave":      func(s *Scenario) { s.Agents[0].Leave = 5 },
		"federation": func(s *Scenario) { s.WithFederation(5, 3) },
	} {
		for _, sc := range []*Scenario{
			crashTestScenario("crash-"+name).CrashPlatformAt(3, platform.CrashMidGather),
			crashTestScenario("pipe-" + name).WithPipelined(),
		} {
			mut(sc)
			if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "fixed population") {
				t.Errorf("%s: err = %v, want a fixed-population error", sc.Name, err)
			}
		}
	}
}

// TestVariantDivergenceIsCaught is the comparison's negative control: a
// variant whose platform skims every award must not match, and a variant
// whose tracer loses the ψ events — which the WAL, state hash and summary
// cannot see — must fail on its audit log alone.
func TestVariantDivergenceIsCaught(t *testing.T) {
	t.Parallel()
	sc := crashTestScenario("diverge")
	res, err := Equivalent(sc, Env{Dir: t.TempDir()},
		Variant{Name: "corrupt", Configure: func(c *platform.ServerConfig) {
			c.Fault.CorruptPayment = func(_ int, aw platform.WireAward) float64 { return aw.Payment * 0.9 }
		}},
		Variant{Name: "lossy-trace", Configure: func(c *platform.ServerConfig) { c.Tracer = dropPsi{c.Tracer} }},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Match || !res.Baseline.Match {
		t.Fatalf("Match=%v with a clean baseline=%v, want a divergence", res.Match, res.Baseline.Match)
	}
	corrupt, lossy := res.Variants[0], res.Variants[1]
	if corrupt.Match || corrupt.AuditMatch || len(corrupt.Violations) == 0 || corrupt.Violations[0].Invariant != "payment" {
		t.Errorf("corrupt variant: match %v, audit match %v, violations %v; want a payment violation and no match",
			corrupt.Match, corrupt.AuditMatch, corrupt.Violations)
	}
	if !lossy.Audited || !lossy.WALMatch || lossy.Hash != res.Baseline.Hash || *lossy.Summary != *res.Baseline.Summary {
		t.Fatalf("lossy-trace variant %+v: want an audited pass with the baseline's WAL, hash and summary", lossy)
	}
	if lossy.AuditMatch || lossy.Match {
		t.Errorf("lossy-trace variant: audit match %v, match %v; the lost ψ lines must fail the comparison", lossy.AuditMatch, lossy.Match)
	}
}

// dropPsi is a tracer that loses every ψ update.
type dropPsi struct{ obs.Tracer }

func (d dropPsi) Emit(e obs.Event) {
	if _, ok := e.(obs.PsiUpdate); !ok {
		d.Tracer.Emit(e)
	}
}

// TestPipelineCompareMatches runs a shortened pipeline scenario with its
// scenario variants and requires a full match: identical WAL bytes, audit
// log where audited, state hash and summary. This is the in-tree version of `chaos -scenario
// pipeline` (the soak gate runs the full 120 rounds).
func TestPipelineCompareMatches(t *testing.T) {
	t.Parallel()
	sc := pipelineScenario()
	sc.Rounds = 40
	res := assertVariantsMatch(t, sc, Env{}, ScenarioVariants(sc, 0)...)
	if res.Baseline.Summary.Rounds != sc.Rounds {
		t.Errorf("baseline summary %+v, want %d rounds", res.Baseline.Summary, sc.Rounds)
	}
}

// TestPipelineCompareRepeatable re-runs the comparison and requires the
// final state hash to be stable across independent harness runs. This
// is the regression test for the map-iteration-order bug in
// Outcome.TotalPayment: summing payments in randomized map order
// perturbed the summary's last ULP, so byte-compared runs of the very
// same scenario disagreed with each other.
func TestPipelineCompareRepeatable(t *testing.T) {
	t.Parallel()
	sc := pipelineScenario()
	sc.Rounds = 30
	var hash string
	for i := 0; i < 3; i++ {
		res, err := Equivalent(sc, Env{Dir: t.TempDir()}, ScenarioVariants(sc, 0)[0])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Match {
			t.Fatalf("run %d diverged: %+v", i, res)
		}
		if hash == "" {
			hash = res.Baseline.Hash
		} else if res.Baseline.Hash != hash {
			t.Fatalf("run %d state hash %s, want %s (nondeterministic harness)", i, res.Baseline.Hash, hash)
		}
	}
}

// TestRecoverTornTail crash-cuts a WAL mid-record and asserts recovery
// uses the complete prefix, reports Truncated, and resumes at the right
// round.
func TestRecoverTornTail(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sc := crashTestScenario("torn")
	walPath := filepath.Join(dir, "run.wal")
	if _, err := Equivalent(sc, Env{Dir: dir}); err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	// Use the baseline WAL as the donor log.
	data, err := os.ReadFile(filepath.Join(dir, "baseline.wal"))
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	recs, err := platform.ReadAudit(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadAudit on intact WAL: %v", err)
	}
	if len(recs) != sc.Rounds {
		t.Fatalf("intact WAL has %d records, want %d", len(recs), sc.Rounds)
	}
	// Cut the final record in half, as a crash mid-write would.
	cut := data[:len(data)-40]
	if err := os.WriteFile(walPath, cut, 0o644); err != nil {
		t.Fatalf("write torn WAL: %v", err)
	}
	rec, err := platform.Recover(walPath, "", core.MSOAConfig{Options: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatalf("Recover on torn WAL: %v", err)
	}
	if !rec.Truncated {
		t.Errorf("recovery did not flag the torn tail")
	}
	if rec.Replayed != sc.Rounds-1 {
		t.Errorf("replayed %d records, want %d (complete prefix)", rec.Replayed, sc.Rounds-1)
	}
	if rec.NextRound != sc.Rounds {
		t.Errorf("NextRound %d, want %d (the torn round reruns)", rec.NextRound, sc.Rounds)
	}
	// The torn record must have been recovered as ErrTruncated, not a
	// hard failure, by the underlying reader too.
	if _, rerr := platform.ReadAudit(bytes.NewReader(cut)); !errors.Is(rerr, obs.ErrTruncated) {
		t.Errorf("ReadAudit on torn WAL: %v, want ErrTruncated", rerr)
	}
}

// TestRecoverEmptyAndMissingWAL: recovery from nothing is a fresh start.
func TestRecoverEmptyAndMissingWAL(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := core.MSOAConfig{Options: core.Options{Parallelism: 1}}

	rec, err := platform.Recover(filepath.Join(dir, "missing.wal"), "", cfg)
	if err != nil {
		t.Fatalf("Recover with missing WAL: %v", err)
	}
	if rec.NextRound != 1 || rec.Replayed != 0 || rec.Truncated {
		t.Errorf("missing WAL: %+v, want fresh start at round 1", rec)
	}

	empty := filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = platform.Recover(empty, filepath.Join(dir, "nosnaps"), cfg)
	if err != nil {
		t.Fatalf("Recover with empty WAL: %v", err)
	}
	if rec.NextRound != 1 || rec.Replayed != 0 || rec.Truncated {
		t.Errorf("empty WAL: %+v, want fresh start at round 1", rec)
	}
}

// TestCrashScenarioValidation rejects out-of-range rounds and unknown
// crash points.
func TestCrashScenarioValidation(t *testing.T) {
	t.Parallel()
	if err := crashTestScenario("bad-round").CrashPlatformAt(99, platform.CrashMidGather).Validate(); err == nil {
		t.Errorf("crash round beyond scenario length validated")
	}
	if err := crashTestScenario("bad-point").CrashPlatformAt(3, "pre-flush").Validate(); err == nil {
		t.Errorf("unknown crash point validated")
	}
	if err := crashTestScenario("ok").CrashPlatformAt(3, platform.CrashPostAnnounce).Validate(); err != nil {
		t.Errorf("valid crash scenario rejected: %v", err)
	}
}
