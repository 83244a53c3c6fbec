// Command repro regenerates the paper's evaluation (Figures 3-6) and the
// ablation studies described in DESIGN.md. It prints each figure as an
// aligned table and can optionally emit CSV files for plotting.
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/experiments"
	"edgeauction/internal/metrics"
	"edgeauction/internal/obs"
	"edgeauction/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

type figure struct {
	name string
	run  func(experiments.Config) (renderable, []*metrics.Series, error)
}

type renderable interface{ Render() string }

func figures() []figure {
	return []figure{
		{"3a", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.Fig3a(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.RatioByJ[1], r.RatioByJ[2], r.CertifiedByJ[1], r.CertifiedByJ[2]}, nil
		}},
		{"3b", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.Fig3b(c)
			if err != nil {
				return nil, nil, err
			}
			s1, s2 := r.ByRequests[100], r.ByRequests[200]
			return r, []*metrics.Series{s1.SocialCost, s1.Payment, s1.Optimal, s2.SocialCost, s2.Payment, s2.Optimal}, nil
		}},
		{"4a", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.Fig4a(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.Price, r.Payment}, nil
		}},
		{"4b", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.Fig4b(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.MillisByRequests[100], r.MillisByRequests[200]}, nil
		}},
		{"5a", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.Fig5a(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.RatioByRequests[100], r.RatioByRequests[200]}, nil
		}},
		{"5b", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.Fig5b(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{
				r.RatioByVariant[core.VariantBase], r.RatioByVariant[core.VariantDA],
				r.RatioByVariant[core.VariantRC], r.RatioByVariant[core.VariantOA],
			}, nil
		}},
		{"6a", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.Fig6a(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.RatioByJ[1], r.RatioByJ[2], r.RatioByJ[4]}, nil
		}},
		{"6b", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.Fig6b(c)
			if err != nil {
				return nil, nil, err
			}
			s1, s2 := r.ByRequests[100], r.ByRequests[200]
			return r, []*metrics.Series{s1.SocialCost, s1.Payment, s1.Optimal, s2.SocialCost, s2.Payment, s2.Optimal}, nil
		}},
		{"winstats", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.WinningStats(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.WinPercent, r.BidderWinPercent}, nil
		}},
		{"overload", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.WorkloadOverload(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.HotBacklog, r.HotUtil, r.CallerAlloc, r.CallerWait, r.Cost}, nil
		}},
		{"spikes", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.WorkloadSpikes(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.NeedyPeak, r.ReserveUnits, r.Cost, r.SLA}, nil
		}},
		{"frontier", func(c experiments.Config) (renderable, []*metrics.Series, error) {
			r, err := experiments.WorkloadFrontier(c)
			if err != nil {
				return nil, nil, err
			}
			return r, []*metrics.Series{r.SLA, r.ReserveShare, r.MeanWait, r.Cost}, nil
		}},
	}
}

func ablations() map[string]func(experiments.Config) (*experiments.AblationResult, error) {
	return map[string]func(experiments.Config) (*experiments.AblationResult, error){
		"scaledprice": experiments.AblationScaledPrice,
		"payments":    experiments.AblationPayments,
		"greedy":      experiments.AblationGreedyMetric,
		"fixedprice":  experiments.AblationFixedPrice,
		"capacity":    experiments.AblationCapacity,
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	figFlag := fs.String("fig", "all", "figure to regenerate: 3a,3b,4a,4b,5a,5b,6a,6b, winstats, overload, spikes, frontier, arena, 'ablations', or 'all'")
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
	if *gomaxprocs > 0 {
		runtime.GOMAXPROCS(*gomaxprocs)
	}

	cfg := experiments.Config{
		Seed: *seed, Trials: *trials, Quick: *quick,
		Parallelism: *parallelism, TrialParallelism: *trialParallelism,
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
	for _, f := range figures() {
		if want != "all" && want != f.name {
			continue
		}
		ranAny = true
		start := time.Now()
		result, series, err := f.run(cfg)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		elapsed := time.Since(start)
		fmt.Println(result.Render())
		fmt.Printf("(figure %s regenerated in %v)\n\n", f.name, elapsed.Round(time.Millisecond))
		bench.record("fig"+f.name, elapsed)
		if *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, "fig"+f.name+".csv"), series); err != nil {
				return err
			}
		}
	}

	if want == "all" || want == "ablations" {
		ranAny = true
		for name, runAbl := range ablations() {
			start := time.Now()
			result, err := runAbl(cfg)
			if err != nil {
				return fmt.Errorf("ablation %s: %w", name, err)
			}
			elapsed := time.Since(start)
			fmt.Println(result.Render())
			fmt.Printf("(ablation %s done in %v)\n\n", name, elapsed.Round(time.Millisecond))
			bench.record("ablation_"+name, elapsed)
			if *csvDir != "" {
				if err := writeCSV(filepath.Join(*csvDir, "ablation_"+name+".csv"), result.Series); err != nil {
					return err
				}
			}
		}
	}

	if want == "all" || want == "federation" {
		ranAny = true
		start := time.Now()
		res, err := experiments.Federation(cfg)
		if err != nil {
			return fmt.Errorf("federation sweep: %w", err)
		}
		elapsed := time.Since(start)
		fmt.Println(res.Render())
		fmt.Printf("(federation sweep done in %v)\n\n", elapsed.Round(time.Millisecond))
		bench.record("federation", elapsed)
		if *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, "federation.csv"),
				[]*metrics.Series{res.Covered, res.Cost, res.Borrowed}); err != nil {
				return err
			}
		}
	}

	if want == "all" || want == "demand" {
		ranAny = true
		start := time.Now()
		res, err := experiments.DemandAblation(cfg)
		if err != nil {
			return fmt.Errorf("demand ablation: %w", err)
		}
		elapsed := time.Since(start)
		fmt.Println(res.Render())
		fmt.Printf("(demand ablation done in %v)\n\n", elapsed.Round(time.Millisecond))
		bench.record("demand_ablation", elapsed)
	}

	if want == "all" || want == "truthfulness" {
		ranAny = true
		start := time.Now()
		res, err := experiments.TruthfulnessSweep(cfg)
		if err != nil {
			return fmt.Errorf("truthfulness sweep: %w", err)
		}
		elapsed := time.Since(start)
		fmt.Println(res.Render())
		fmt.Printf("(truthfulness sweep done in %v)\n\n", elapsed.Round(time.Millisecond))
		bench.record("truthfulness", elapsed)
	}

	if want == "all" || want == "arena" {
		ranAny = true
		start := time.Now()
		res, err := experiments.Arena(cfg, arenaSpecs)
		if err != nil {
			return fmt.Errorf("mechanism arena: %w", err)
		}
		elapsed := time.Since(start)
		fmt.Println(res.Render())
		fmt.Printf("(mechanism arena done in %v)\n\n", elapsed.Round(time.Millisecond))
		bench.record("arena", elapsed)
		if *arenaJSON != "" {
			data, err := res.JSON()
			if err != nil {
				return fmt.Errorf("marshal arena result: %w", err)
			}
			if dir := filepath.Dir(*arenaJSON); dir != "." {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return fmt.Errorf("create arena dir: %w", err)
				}
			}
			if err := os.WriteFile(*arenaJSON, append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("write arena result: %w", err)
			}
			fmt.Printf("(arena result written to %s)\n\n", *arenaJSON)
		}
	}

	if !ranAny {
		return fmt.Errorf("unknown figure %q (want 3a,3b,4a,4b,5a,5b,6a,6b, winstats, truthfulness, arena, ablations, or all)", *figFlag)
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
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("create bench dir: %w", err)
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal bench report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write bench report: %w", err)
	}
	return nil
}

func writeCSV(path string, series []*metrics.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	if err := metrics.WriteCSV(f, "x", series...); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
