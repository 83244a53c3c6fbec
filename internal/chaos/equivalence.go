package chaos

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/platform"
)

// Loop is how a pass drives the scenario's rounds.
type Loop int

const (
	// LoopSerial calls RunRound once per round. The baseline runs it, and
	// only serial passes carry the auditor: it pairs each round's trace
	// batch with its record, which a pipelined overlap interleaves and a
	// platform death cuts.
	LoopSerial Loop = iota
	// LoopPipelined clears every round through platform.RunPipelined, so
	// round t settles while round t+1 gathers.
	LoopPipelined
	// LoopCrash runs rounds serially, kills the platform once at each of
	// the scenario's PlatformCrashes, and restarts it from
	// platform.Recover (latest snapshot + WAL-suffix replay).
	LoopCrash
)

// Variant is one way of executing a scenario whose record must be
// byte-identical to the baseline's.
type Variant struct {
	// Name labels the variant in results and logs and names its working
	// files (<Name>.wal, <Name>.snapshots/) under Env.Dir; the baseline's
	// are baseline.wal and baseline.snapshots/.
	Name string
	Loop Loop
	// SnapshotEvery checkpoints the pass every N rounds, so a LoopCrash
	// recovery replays a WAL suffix rather than the whole log; 0 disables.
	SnapshotEvery int
	// Configure, when non-nil, sets ServerConfig fields on top of the
	// pass's own before every server start. A serial pass stays audited
	// while Configure leaves the auditor's Audit sink in place; one that
	// removes it must remove the auditor's Tracer too.
	Configure func(*platform.ServerConfig)
}

// Env is where and how Equivalent runs its passes. The auditor fields
// (AuditLog through MaxViolations) act on the baseline pass only.
type Env struct {
	// Dir holds every pass's WAL and snapshot directory. Each pass deletes
	// its own files there before it starts, so a reused Dir cannot leak an
	// earlier run into this one. Empty means a temp dir removed on return.
	Dir string
	// Fsync forces every pass's WAL to stable storage on each append.
	Fsync bool
	// Logger receives operational progress; nil discards it.
	Logger *log.Logger
	// AuditLog receives a copy of the baseline auditor's deterministic
	// per-round JSONL; nil keeps it in memory only.
	AuditLog io.Writer
	// TraceLog receives the baseline's raw timestamped obs event stream;
	// nil disables it. Unlike the audit log it is NOT deterministic.
	TraceLog io.Writer
	// DumpDir, when set, receives one JSON evidence file per violated
	// round for one-command repro.
	DumpDir string
	// BreakPayments enables the deliberately broken payment rule (a 10%
	// platform skim on every award) that the auditor must catch within
	// one round. It exists to prove the auditor is live.
	BreakPayments bool
	// MaxViolations stops the baseline after this many violations; 0
	// means 1. Use a negative value to keep running through all of them.
	// Audited variants stop at their first.
	MaxViolations int
}

// Verdict is one pass's outcome and its comparison with the baseline.
type Verdict struct {
	Name string
	// Hash fingerprints the final mechanism state (core.MSOAState.Hash).
	Hash    string
	Summary *core.OnlineSummary

	// Audited reports that the auditor watched the pass. The audit fields
	// below stay zero on a pass it did not watch.
	Audited bool
	// Rounds is the number of platform rounds audited; Infeasible counts
	// those whose demand could not be covered; FedRounds counts the
	// interleaved federated rounds; Checks totals invariant checks.
	Rounds, Infeasible, FedRounds, Checks int
	// Violations holds every invariant violation found (empty on a clean
	// pass); Dumps lists evidence files written for violated rounds.
	Violations []Violation
	Dumps      []string
	// Actions counts executed agent actions by kind (bid, crash, delay,
	// slow, abstain), so tests can assert a scenario exercised the fault
	// paths it was written for.
	Actions map[string]int

	// WALMatch reports that the pass logged exactly the baseline's WAL
	// bytes: every round once, in order, with the same outcome.
	// AuditMatch reports the same of the audit log; it is true on passes
	// the auditor did not watch.
	WALMatch, AuditMatch bool
	// Match is the verdict: WAL bytes, audit bytes, state hash and
	// summary all agree.
	Match bool
	// Crashes counts scripted kills that fired; Recoveries counts
	// restarts (equal unless the last round crashed after its WAL
	// append); Replayed totals WAL records re-run across recoveries;
	// Snapshots counts checkpoints written.
	Crashes, Recoveries, Replayed, Snapshots int
}

// EquivalenceResult is the outcome of one Equivalent call.
type EquivalenceResult struct {
	Scenario string
	Seed     int64
	Rounds   int
	Baseline Verdict
	Variants []Verdict
	// Match reports that the baseline is audit-clean and every variant
	// matched it.
	Match bool
}

// ScenarioVariants returns the variants a scenario gates. An audited
// scenario — no PlatformCrashes, not Pipelined — gets a rerun: a second
// audited pass that must reproduce the baseline byte for byte. A
// comparison scenario gets LoopCrash (checkpointing every snapshotEvery
// rounds) when it scripts PlatformCrashes, LoopPipelined when it is
// Pipelined, and a pass with the auditor's tracer detached and one with
// payment parallelism 4: observing and parallelising must not change
// outcomes.
func ScenarioVariants(sc *Scenario, snapshotEvery int) []Variant {
	if len(sc.PlatformCrashes) == 0 && !sc.Pipelined {
		return []Variant{{Name: "rerun"}}
	}
	var vs []Variant
	if len(sc.PlatformCrashes) > 0 {
		vs = append(vs, Variant{Name: "crash", Loop: LoopCrash, SnapshotEvery: snapshotEvery})
	}
	if sc.Pipelined {
		vs = append(vs, Variant{Name: "pipelined", Loop: LoopPipelined, Configure: func(c *platform.ServerConfig) {
			// A real overlap window, so settle t genuinely overlaps the
			// ingest of round t+1's bids.
			c.PipelineYield = 500 * time.Microsecond
		}})
	}
	return append(vs,
		Variant{Name: "untraced", Configure: func(c *platform.ServerConfig) { c.Tracer, c.Audit = nil, nil }},
		Variant{Name: "parallel-payments", Configure: func(c *platform.ServerConfig) { c.Auction.Options.Parallelism = 4 }},
	)
}

// Equivalent runs the scenario once as the audited, serial, crash-free
// baseline and once per variant, each pass an engine run from an empty
// WAL, and compares each variant's WAL bytes, audit log (when the auditor
// watched both), final ψ/χ state hash and OnlineSummary with the
// baseline's. Every draw is a pure function of the scenario, so every
// pass sees identical demand and bids. A baseline that breaks an
// invariant is the finding: its variants are not run.
func Equivalent(sc *Scenario, env Env, variants ...Variant) (*EquivalenceResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if env.Dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-equivalence-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		env.Dir = tmp
	} else if err := os.MkdirAll(env.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("chaos: working dir: %w", err)
	}
	if env.Logger == nil {
		env.Logger = log.New(io.Discard, "", 0)
	}

	res := &EquivalenceResult{Scenario: sc.Name, Seed: sc.Seed, Rounds: sc.Rounds}
	base, err := runEngine(sc, env, Variant{Name: "baseline"})
	if err != nil {
		return nil, err
	}
	base.WALMatch, base.AuditMatch, base.Match = true, true, len(base.Violations) == 0
	res.Baseline, res.Match = base.Verdict, base.Match
	if !res.Match {
		return res, nil
	}
	// The auditor settings act on the baseline alone.
	quiet := Env{Dir: env.Dir, Fsync: env.Fsync, Logger: env.Logger}
	for _, v := range variants {
		p, err := runEngine(sc, quiet, v)
		if err != nil {
			return nil, err
		}
		vd := &p.Verdict
		vd.WALMatch = bytes.Equal(p.wal, base.wal)
		vd.AuditMatch = !vd.Audited || bytes.Equal(p.audit.Bytes(), base.audit.Bytes())
		vd.Match = vd.WALMatch && vd.AuditMatch && vd.Hash == base.Hash &&
			vd.Summary != nil && base.Summary != nil && *vd.Summary == *base.Summary
		res.Match = res.Match && vd.Match
		res.Variants = append(res.Variants, *vd)
	}
	return res, nil
}
