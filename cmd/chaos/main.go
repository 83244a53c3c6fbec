// Command chaos runs deterministic chaos scenarios against the real
// auction platform with the online mechanism-invariant auditor attached.
//
// Usage:
//
//	chaos -scenario churn                      # run a builtin scenario
//	chaos -scenario testdata/foo.json          # run a JSON scenario file
//	chaos -scenario churn -audit-out run.jsonl # capture the deterministic audit log
//	chaos -scenario churn -break-payments      # prove the auditor is live
//	chaos -scenario crash                      # kill/recover the platform, byte-compare
//	chaos -scenario pipeline                   # serial vs pipelined engine, byte-compare
//	chaos -list                                # list builtin scenarios
//	chaos -scenario churn -print               # dump the scenario as JSON
//
// Every scenario goes through chaos.Equivalent: an audited, serial,
// crash-free baseline, then each of the scenario's variants
// (chaos.ScenarioVariants) — a rerun for an audited scenario; kill/recover
// or pipelined, untraced and parallel payments for a comparison scenario
// (`make soak-equivalence`). Every variant must match the baseline's WAL,
// audit log, state hash and summary byte for byte. The auditor's flags
// (-audit-out, -trace-out, -dump-dir, -break-payments, -max-violations)
// act on the baseline pass.
// Exit status: 0 on a clean run, 1 on operational errors, 2 when the
// auditor found invariant violations or a variant diverged.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"edgeauction/internal/chaos"
	"edgeauction/internal/core"
	"edgeauction/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prof := obs.ProfileFlags(fs)
	var (
		scenario      = fs.String("scenario", "", "builtin scenario name or path to a JSON scenario file")
		list          = fs.Bool("list", false, "list builtin scenarios and exit")
		printScenario = fs.Bool("print", false, "print the scenario JSON (defaults applied) and exit")
		seed          = fs.Int64("seed", 0, "override the scenario seed")
		rounds        = fs.Int("rounds", 0, "override the scenario round count")
		auditOut      = fs.String("audit-out", "", "write the baseline's deterministic audit JSONL here ('-' for stdout)")
		traceOut      = fs.String("trace-out", "", "write the baseline's raw (timestamped) obs trace JSONL here")
		dumpDir       = fs.String("dump-dir", "", "write per-violation evidence dumps into this directory")
		breakPayments = fs.Bool("break-payments", false, "corrupt every baseline award by 10% so the auditor must object")
		maxViolations = fs.Int("max-violations", 0, "stop the baseline after N violations (0 = 1; negative = collect all)")
		quiet         = fs.Bool("quiet", false, "suppress progress logging")
		crashDir      = fs.String("crash-dir", "", "working dir for every pass's WAL and snapshots; each pass clears its own there first (default: a temp dir)")
		snapshotEvery = fs.Int("snapshot-every", 10, "checkpoint the crash variant every N rounds (0 disables)")
		fsync         = fs.Bool("fsync", false, "fsync the WAL on every append (every pass)")
		mechanism     = fs.String("mechanism", "", "override the scenario mechanism spec, e.g. 'posted-price' or 'double-auction:overbook=1.25'")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(stderr, "chaos:", err)
		return 1
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(stderr, "chaos:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *list {
		for _, name := range chaos.BuiltinNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *scenario == "" {
		fmt.Fprintln(stderr, "chaos: -scenario is required (try -list)")
		return 1
	}

	sc, err := loadScenario(*scenario)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *rounds != 0 {
		sc.Rounds = *rounds
	}
	if *mechanism != "" {
		spec, err := core.ParseMechanismSpec(*mechanism)
		if err != nil {
			fmt.Fprintf(stderr, "chaos: %v\n", err)
			return 1
		}
		sc.Mechanism = &spec
	}

	if *printScenario {
		data, err := sc.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "chaos: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}

	env := chaos.Env{
		Dir:           *crashDir,
		Fsync:         *fsync,
		DumpDir:       *dumpDir,
		BreakPayments: *breakPayments,
		MaxViolations: *maxViolations,
	}
	if !*quiet {
		env.Logger = log.New(stderr, "", 0)
	}
	for _, out := range []struct {
		path string
		dst  *io.Writer
	}{
		{*auditOut, &env.AuditLog},
		{*traceOut, &env.TraceLog},
	} {
		if out.path == "" {
			continue
		}
		if out.path == "-" {
			*out.dst = stdout
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			fmt.Fprintf(stderr, "chaos: %v\n", err)
			return 1
		}
		defer f.Close()
		*out.dst = f
	}

	res, err := chaos.Equivalent(sc, env, chaos.ScenarioVariants(sc, *snapshotEvery)...)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}
	base := res.Baseline
	fmt.Fprintf(stdout, "scenario %s seed %d: %d rounds audited (%d infeasible, %d federated), %d checks, %d violations\n",
		res.Scenario, res.Seed, base.Rounds, base.Infeasible, base.FedRounds, base.Checks, len(base.Violations))
	if base.Summary != nil {
		fmt.Fprintf(stdout, "mechanism: social cost %.2f, payments %.2f, %d winning bids\n",
			base.Summary.SocialCost, base.Summary.TotalPayment, base.Summary.WinningBids)
	}
	repro := fmt.Sprintf("repro: go run ./cmd/chaos -scenario %s -seed %d", res.Scenario, res.Seed)
	if len(base.Violations) > 0 {
		for _, v := range base.Violations {
			fmt.Fprintf(stdout, "VIOLATION %s\n", v)
		}
		for _, d := range base.Dumps {
			fmt.Fprintf(stdout, "evidence: %s\n", d)
		}
		fmt.Fprintln(stdout, repro)
		return 2
	}
	fmt.Fprintf(stdout, "baseline state %s\n", short(base.Hash))
	for _, v := range res.Variants {
		audit := ""
		if v.Audited {
			audit = fmt.Sprintf(", audit match %v", v.AuditMatch)
		}
		fmt.Fprintf(stdout, "variant %s: state %s, WAL match %v%s, match %v; %d platform crashes, %d recoveries (%d records replayed, %d snapshots)\n",
			v.Name, short(v.Hash), v.WALMatch, audit, v.Match, v.Crashes, v.Recoveries, v.Replayed, v.Snapshots)
		for _, viol := range v.Violations {
			fmt.Fprintf(stdout, "variant %s VIOLATION %s\n", v.Name, viol)
		}
	}
	if !res.Match {
		fmt.Fprintf(stdout, "DIVERGENCE: a variant does not match the audited, serial, crash-free baseline\n")
		fmt.Fprintf(stdout, "%s -crash-dir <dir>\n", repro)
		return 2
	}
	fmt.Fprintf(stdout, "every variant is byte-identical to the audited, serial, crash-free baseline\n")
	return 0
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// loadScenario resolves a builtin name or a JSON file path.
func loadScenario(ref string) (*chaos.Scenario, error) {
	if strings.ContainsAny(ref, "./\\") {
		return chaos.LoadFile(ref)
	}
	return chaos.Builtin(ref)
}
