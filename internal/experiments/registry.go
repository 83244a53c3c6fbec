package experiments

import (
	"io"

	"edgeauction/internal/metrics"
)

// Result is what every registered experiment returns: it formats
// itself as the table cmd/repro prints.
type Result interface {
	Render() string
}

// SeriesResult is a Result whose table is a set of series over one sweep
// axis. Curves returns them in column order, the one list Render
// tabulates and cmd/repro writes as the experiment's CSV file. The
// results that are not SeriesResults (the demand ablation, the
// truthfulness sweep and the arena) have no CSV file.
type SeriesResult interface {
	Result
	Curves() []*metrics.Series
}

// Experiment is one target of the reproduction.
type Experiment struct {
	// Name is the experiment's -bench-json entry and CSV file stem.
	Name string
	// Select is the cmd/repro -fig value that runs it; the ablations
	// share one.
	Select string
	// Run regenerates the experiment under a configuration.
	Run func(Config) (Result, error)
}

// Experiments returns every target of the reproduction in the order
// cmd/repro runs them: the paper's figures, the supplementary and
// workload figures, the ablations, and the extensions.
func Experiments() []Experiment {
	return []Experiment{
		{"fig3a", "3a", as(Fig3a)},
		{"fig3b", "3b", as(Fig3b)},
		{"fig4a", "4a", as(Fig4a)},
		{"fig4b", "4b", as(Fig4b)},
		{"fig5a", "5a", as(Fig5a)},
		{"fig5b", "5b", as(Fig5b)},
		{"fig6a", "6a", as(Fig6a)},
		{"fig6b", "6b", as(Fig6b)},
		{"figwinstats", "winstats", as(WinningStats)},
		{"figoverload", "overload", as(WorkloadOverload)},
		{"figspikes", "spikes", as(WorkloadSpikes)},
		{"figfrontier", "frontier", as(WorkloadFrontier)},
		{"ablation_scaledprice", "ablations", as(AblationScaledPrice)},
		{"ablation_payments", "ablations", as(AblationPayments)},
		{"ablation_greedy", "ablations", as(AblationGreedyMetric)},
		{"ablation_fixedprice", "ablations", as(AblationFixedPrice)},
		{"ablation_capacity", "ablations", as(AblationCapacity)},
		{"federation", "federation", as(Federation)},
		{"demand_ablation", "demand", as(DemandAblation)},
		{"truthfulness", "truthfulness", as(TruthfulnessSweep)},
		{"arena", "arena", as(Arena)},
	}
}

// Selectors returns the distinct Select values in registry order.
func Selectors() []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if !seen[e.Select] {
			seen[e.Select] = true
			out = append(out, e.Select)
		}
	}
	return out
}

// WriteCSV writes a result's curves as CSV with the sweep axis in an "x"
// column.
func WriteCSV(w io.Writer, r SeriesResult) error {
	return metrics.WriteCSV(w, "x", r.Curves()...)
}

// as adapts a driver to Run, keeping a failed driver's nil result an
// untyped nil.
func as[R Result](driver func(Config) (R, error)) func(Config) (Result, error) {
	return func(c Config) (Result, error) {
		r, err := driver(c)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}
