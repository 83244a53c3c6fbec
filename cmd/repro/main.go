// Command repro regenerates the paper's evaluation (Figures 3-6), the
// ablation studies described in DESIGN.md and the extensions: every
// experiment of experiments.Experiments(), in registry order. It prints
// each as an aligned table and can optionally emit CSV files for plotting.
//
// Usage:
//
//	repro -fig all                 # every figure, paper-scale sweeps
//	repro -fig 3a -trials 10       # one figure, more averaging
//	repro -fig ablations -quick    # ablations at reduced scale
//	repro -fig all -csv out/       # also write out/fig3a.csv etc.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/experiments"
	"edgeauction/internal/obs"
	"edgeauction/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	prof := obs.ProfileFlags(fs)
	figFlag := fs.String("fig", "all", "experiment to regenerate: "+selectorList())
	seed := fs.Int64("seed", 1, "workload seed")
	trials := fs.Int("trials", 5, "instances averaged per sweep point")
	quick := fs.Bool("quick", false, "reduced sweeps for a fast smoke run")
	optTime := fs.Duration("opt-time", 0, "time budget per exact offline solve (default 2s, or 500ms with -quick)")
	csvDir := fs.String("csv", "", "directory to also write per-figure CSV files")
	parallelism := fs.Int("parallelism", 0, "payment-phase worker goroutines (0 = GOMAXPROCS, 1 = serial; results identical)")
	trialParallelism := fs.Int("trial-parallelism", 0, "sweep-cell worker goroutines (0 = GOMAXPROCS, 1 = serial; rendered tables identical)")
	benchJSON := fs.String("bench-json", "", "file to write per-figure wall-clock timings as JSON")
	traceOut := fs.String("trace-out", "", "append a JSONL sweep event per completed experiment grid to this file")
	gomaxprocs := fs.Int("gomaxprocs", 0, "cap GOMAXPROCS for this run (0 = leave unchanged; recorded in -bench-json for multicore sweeps)")
	mechanism := fs.String("mechanism", "", "mechanism spec for the online figures, e.g. 'posted-price:epsilon=0.1' (empty = ssam; see internal/core.ParseMechanismSpec)")
	topologyPath := fs.String("topology", "", "YAML service topology replacing the builtin graph of the workload figures (overload, spikes, frontier)")
	var arenaSpecs core.MechanismSpecList
	fs.Var(&arenaSpecs, "arena-spec", "mechanism spec to race in the arena (repeatable; default: ssam, posted-price, double-auction)")
	arenaJSON := fs.String("arena-json", "", "file to write the arena result as JSON (e.g. results/ARENA.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, prof.Stop()) }()
	if *gomaxprocs > 0 {
		runtime.GOMAXPROCS(*gomaxprocs)
	}

	cfg := experiments.Config{
		Seed: *seed, Trials: *trials, Quick: *quick,
		Parallelism: *parallelism, TrialParallelism: *trialParallelism,
		ArenaSpecs: arenaSpecs,
	}
	if *mechanism != "" {
		spec, err := core.ParseMechanismSpec(*mechanism)
		if err != nil {
			return err
		}
		cfg.Mechanism = spec
	}
	if *topologyPath != "" {
		g, err := workload.LoadServiceGraph(*topologyPath)
		if err != nil {
			return err
		}
		cfg.Graph = g
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open trace log: %w", err)
		}
		jl := obs.NewJSONL(f)
		defer func() {
			if err := jl.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "repro: trace log:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "repro: close trace log:", err)
			}
		}()
		cfg.Tracer = jl
	}
	// Only an -opt-time the user actually typed overrides the defaults;
	// otherwise the zero value lets withDefaults pick 2s (500ms in Quick
	// mode), so `repro -quick` keeps its fast solver budget.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "opt-time" {
			cfg.OptTimeLimit = *optTime
		}
	})
	want := strings.ToLower(*figFlag)
	var bench *benchReport
	if *benchJSON != "" {
		bench = newBenchReport(cfg)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}

	ranAny := false
	for _, e := range experiments.Experiments() {
		if want != "all" && want != e.Select {
			continue
		}
		ranAny = true
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		elapsed := time.Since(start)
		fmt.Println(res.Render())
		fmt.Printf("(%s done in %v)\n\n", e.Name, elapsed.Round(time.Millisecond))
		bench.record(e.Name, elapsed)
		if sr, ok := res.(experiments.SeriesResult); ok && *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, e.Name+".csv"), sr); err != nil {
				return err
			}
		}
		if arena, ok := res.(*experiments.ArenaResult); ok && *arenaJSON != "" {
			data, err := arena.JSON()
			if err != nil {
				return fmt.Errorf("marshal arena result: %w", err)
			}
			if err := writeFile(*arenaJSON, append(data, '\n')); err != nil {
				return fmt.Errorf("write arena result: %w", err)
			}
			fmt.Printf("(arena result written to %s)\n\n", *arenaJSON)
		}
	}
	if !ranAny {
		return fmt.Errorf("unknown figure %q (want %s)", *figFlag, selectorList())
	}
	if bench != nil {
		if err := bench.write(*benchJSON); err != nil {
			return err
		}
		fmt.Printf("(wall-clock report written to %s)\n", *benchJSON)
	}
	return nil
}

// benchReport accumulates per-figure wall-clock timings for -bench-json.
type benchReport struct {
	Seed             int64        `json:"seed"`
	Trials           int          `json:"trials"`
	Quick            bool         `json:"quick"`
	Parallelism      int          `json:"parallelism"`
	TrialParallelism int          `json:"trialParallelism"`
	GoMaxProcs       int          `json:"goMaxProcs"`
	TotalMillis      float64      `json:"totalMillis"`
	Figures          []benchEntry `json:"figures"`
}

type benchEntry struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

func newBenchReport(cfg experiments.Config) *benchReport {
	return &benchReport{
		Seed: cfg.Seed, Trials: cfg.Trials, Quick: cfg.Quick,
		Parallelism: cfg.Parallelism, TrialParallelism: cfg.TrialParallelism,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
}

// record is a no-op on a nil receiver so call sites stay unconditional.
func (b *benchReport) record(name string, d time.Duration) {
	if b == nil {
		return
	}
	ms := float64(d.Microseconds()) / 1000
	b.Figures = append(b.Figures, benchEntry{Name: name, Millis: ms})
	b.TotalMillis += ms
}

func (b *benchReport) write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal bench report: %w", err)
	}
	if err := writeFile(path, append(data, '\n')); err != nil {
		return fmt.Errorf("write bench report: %w", err)
	}
	return nil
}

func writeCSV(path string, res experiments.SeriesResult) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	if err := experiments.WriteCSV(f, res); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// writeFile writes data to path, creating its directory first.
func writeFile(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// selectorList names every -fig value: the registry's selectors, then
// "all".
func selectorList() string {
	return strings.Join(experiments.Selectors(), ", ") + ", or all"
}
