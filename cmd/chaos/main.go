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
// The audit log is deterministic: two runs of the same scenario and seed
// are byte-identical, which is what `make soak-quick` asserts with cmp.
// Comparison scenarios (those scripting platform crashes or marked
// pipelined; `make soak-equivalence`) extend the same idea to the durable
// record: chaos.Equivalent runs a serial, crash-free baseline and each of
// the scenario's variants — kill/recover, pipelined, traced, parallel
// payments — and every variant must match the baseline byte-for-byte.
// The auditor's flags (-audit-out, -trace-out, -dump-dir,
// -break-payments, -max-violations) are rejected on them.
// Exit status: 0 on a clean run, 1 on operational errors, 2 when the
// auditor found invariant violations or a comparison variant diverged.
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
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario      = fs.String("scenario", "", "builtin scenario name or path to a JSON scenario file")
		list          = fs.Bool("list", false, "list builtin scenarios and exit")
		printScenario = fs.Bool("print", false, "print the scenario JSON (defaults applied) and exit")
		seed          = fs.Int64("seed", 0, "override the scenario seed")
		rounds        = fs.Int("rounds", 0, "override the scenario round count")
		auditOut      = fs.String("audit-out", "", "write the deterministic audit JSONL here ('-' for stdout)")
		traceOut      = fs.String("trace-out", "", "write the raw (timestamped) obs trace JSONL here")
		dumpDir       = fs.String("dump-dir", "", "write per-violation evidence dumps into this directory")
		breakPayments = fs.Bool("break-payments", false, "corrupt every award by 10% so the auditor must object")
		maxViolations = fs.Int("max-violations", 0, "stop after N violations (0 = 1; negative = collect all)")
		quiet         = fs.Bool("quiet", false, "suppress progress logging")
		crashDir      = fs.String("crash-dir", "", "working dir for comparison scenarios; each pass clears its own WAL and snapshots there first (default: a temp dir)")
		snapshotEvery = fs.Int("snapshot-every", 10, "checkpoint the crash variant every N rounds (0 disables)")
		fsync         = fs.Bool("fsync", false, "fsync the WAL on every append (every pass of a comparison scenario)")
		mechanism     = fs.String("mechanism", "", "override the scenario mechanism spec, e.g. 'posted-price' or 'double-auction:overbook=1.25'")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

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

	if len(sc.PlatformCrashes) > 0 || sc.Pipelined {
		var auditOnly []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "audit-out", "trace-out", "dump-dir", "break-payments", "max-violations":
				auditOnly = append(auditOnly, "-"+f.Name)
			}
		})
		if len(auditOnly) > 0 {
			fmt.Fprintf(stderr, "chaos: %s only applies to audited scenarios; %s is a comparison scenario\n",
				strings.Join(auditOnly, ", "), sc.Name)
			return 1
		}
		return runEquivalent(sc, *crashDir, *snapshotEvery, *fsync, *quiet, stdout, stderr)
	}

	cfg := chaos.Config{
		Scenario:      sc,
		DumpDir:       *dumpDir,
		BreakPayments: *breakPayments,
		MaxViolations: *maxViolations,
	}
	if !*quiet {
		cfg.Logger = log.New(stderr, "", 0)
	}
	for _, out := range []struct {
		path string
		dst  *io.Writer
	}{
		{*auditOut, &cfg.AuditLog},
		{*traceOut, &cfg.TraceLog},
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

	res, err := chaos.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "scenario %s seed %d: %d rounds audited (%d infeasible, %d federated), %d checks, %d violations\n",
		res.Scenario, res.Seed, res.Rounds, res.Infeasible, res.FedRounds, res.Checks, len(res.Violations))
	if res.Summary != nil {
		fmt.Fprintf(stdout, "mechanism: social cost %.2f, payments %.2f, %d winning bids\n",
			res.Summary.SocialCost, res.Summary.TotalPayment, res.Summary.WinningBids)
	}
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "VIOLATION %s\n", v)
		}
		for _, d := range res.Dumps {
			fmt.Fprintf(stdout, "evidence: %s\n", d)
		}
		fmt.Fprintf(stdout, "repro: go run ./cmd/chaos -scenario %s -seed %d\n", res.Scenario, res.Seed)
		return 2
	}
	return 0
}

// runEquivalent executes a comparison scenario: the serial, crash-free
// baseline and each of the scenario's variants (chaos.ScenarioVariants),
// compared byte-for-byte. Exit 2 when any variant diverges.
func runEquivalent(sc *chaos.Scenario, dir string, snapshotEvery int, fsync, quiet bool, stdout, stderr io.Writer) int {
	env := chaos.Env{Dir: dir, Fsync: fsync}
	if !quiet {
		env.Logger = log.New(stderr, "", 0)
	}
	res, err := chaos.Equivalent(sc, env, chaos.ScenarioVariants(sc, snapshotEvery)...)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "scenario %s seed %d: %d rounds, baseline state %s\n",
		res.Scenario, res.Seed, res.Rounds, short(res.Baseline.Hash))
	for _, v := range res.Variants {
		fmt.Fprintf(stdout, "variant %s: state %s, WAL match %v, match %v; %d platform crashes, %d recoveries (%d records replayed, %d snapshots)\n",
			v.Name, short(v.Hash), v.WALMatch, v.Match, v.Crashes, v.Recoveries, v.Replayed, v.Snapshots)
	}
	if !res.Match {
		fmt.Fprintf(stdout, "DIVERGENCE: a variant does not match the serial, crash-free baseline\n")
		fmt.Fprintf(stdout, "repro: go run ./cmd/chaos -scenario %s -seed %d -crash-dir <dir>\n", res.Scenario, res.Seed)
		return 2
	}
	fmt.Fprintf(stdout, "every variant is byte-identical to the serial, crash-free baseline\n")
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
