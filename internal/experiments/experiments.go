// Package experiments reproduces every figure of the paper's evaluation
// (§V, Figures 3-6): parameter sweeps over the number of microservices,
// requests, rounds, and bids per bidder, with the mechanisms' social cost
// and payments measured against offline optima. Each driver returns a
// Result that renders as a table and gives the series of its CSV file;
// Experiments lists the drivers in the one order cmd/repro, the
// benchmarks and the golden test iterate.
//
// Performance-ratio denominators use the exact branch-and-bound optimum
// when it closes within the configured time budget and the LP-relaxation
// lower bound otherwise; the latter can only OVER-state ratios, keeping
// reported results conservative.
package experiments

import (
	"fmt"
	"math"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/metrics"
	"edgeauction/internal/obs"
	"edgeauction/internal/optimal"
	"edgeauction/internal/workload"
)

// Config is shared by all experiment drivers.
type Config struct {
	// Seed makes the sweep deterministic.
	Seed int64
	// Trials is how many instances are averaged per sweep point; zero
	// means 5.
	Trials int
	// OptTimeLimit bounds each exact solve; zero means 2s.
	OptTimeLimit time.Duration
	// Quick trims sweeps for use inside testing.B loops: fewer sweep
	// points and trials, smaller instances.
	Quick bool
	// Parallelism is forwarded to core.Options.Parallelism for every
	// auction the drivers run: the worker count of the critical-value
	// payment phase. Zero means GOMAXPROCS, 1 forces serial. Results are
	// bit-identical at every level.
	Parallelism int
	// Mechanism selects the single-stage mechanism the online drivers
	// (Fig5, Fig6, the arena's per-mechanism runs aside) clear rounds
	// through, via core.MSOAConfig.Mechanism. The zero value is SSAM and
	// reproduces the paper's figures bit-identically.
	Mechanism core.MechanismSpec
	// ArenaSpecs are the mechanisms Arena races; empty selects
	// DefaultArenaSpecs.
	ArenaSpecs []core.MechanismSpec
	// TrialParallelism is the worker count of the sweep runner that fans
	// (sweep point, trial) cells out across goroutines. Zero means
	// GOMAXPROCS, 1 forces serial. Every trial samples from its own
	// DeriveSeed-derived RNG stream, so rendered results are byte-identical
	// at every level for a fixed seed.
	TrialParallelism int
	// Graph, when non-nil, replaces the builtin service topology of the
	// workload drivers (WorkloadOverload, WorkloadSpikes, WorkloadFrontier)
	// — the -topology flag of cmd/repro ends up here. Nil runs each
	// driver's builtin scenario graph.
	Graph *workload.ServiceGraph
	// Tracer, when non-nil, receives one obs.Sweep event per completed
	// (points × trials) grid with the driver tag, cell count, wall-clock,
	// and worker count. It is deliberately NOT forwarded to the auctions
	// inside the cells: per-pick tracing across thousands of cells would
	// swamp any sink, and cells run concurrently. Wire core.Options.Tracer
	// yourself for single-auction deep traces.
	Tracer obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 5
	}
	// An explicitly set OptTimeLimit is respected even in Quick mode (the
	// determinism tests set it non-binding so solver timeouts cannot make
	// renders load-dependent); only the default is trimmed for Quick runs.
	if c.OptTimeLimit == 0 {
		c.OptTimeLimit = 2 * time.Second
		if c.Quick {
			c.OptTimeLimit = 500 * time.Millisecond
		}
	}
	if c.Quick {
		c.Trials = 2
	}
	return c
}

func (c Config) optOptions() optimal.Options {
	return optimal.Options{TimeLimit: c.OptTimeLimit}
}

// auctionOptions builds the single-stage auction options every driver runs
// with, threading the configured payment parallelism through. When the
// outer trial pool already uses more than one worker and the inner payment
// parallelism is left on auto, the inner pool defaults to serial: the
// trial fan-out saturates GOMAXPROCS by itself, and nested auto-sized
// payment pools would only oversubscribe the scheduler. An explicit
// Parallelism setting always wins.
func (c Config) auctionOptions(skipCertificate bool) core.Options {
	par := c.Parallelism
	if par == 0 && c.trialWorkers() > 1 {
		par = 1
	}
	return core.Options{SkipCertificate: skipCertificate, Parallelism: par}
}

// msoaConfig assembles a scenario's MSOAConfig with the configured
// mechanism applied — the single place online drivers pick up
// Config.Mechanism.
func (c Config) msoaConfig(scn *workload.Scenario, skipCertificate bool) core.MSOAConfig {
	mcfg := scn.Config(c.auctionOptions(skipCertificate))
	mcfg.Mechanism = c.Mechanism
	return mcfg
}

// sizes returns the microservice-count sweep (paper: 25-75).
func (c Config) sizes() []int {
	if c.Quick {
		return []int{10, 20}
	}
	return []int{25, 35, 45, 55, 65, 75}
}

// demandScale maps the paper's "number of requests" knob (100 vs 200) onto
// the per-needy demand range: twice the requests, twice the residual
// demand to procure.
func demandScale(requests int) (lo, hi int) {
	factor := float64(requests) / 100
	lo = int(10 * factor)
	hi = int(40 * factor)
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// stageConfig builds the §V-A instance generator configuration for a sweep
// point. Per-bid supply (units) scales with sqrt of the request factor:
// heavier request load both raises the residual demand AND makes yielding
// microservices offer somewhat more per bid, so the market tightens
// gradually instead of slamming into the supply frontier — where costs
// would be dominated by the platform's reserve pool rather than by the
// mechanism under study.
func stageConfig(bidders, requests, bidsPerBidder int) workload.InstanceConfig {
	lo, hi := demandScale(requests)
	supply := math.Sqrt(float64(requests) / 100)
	unitsHi := int(10*supply + 0.5)
	if unitsHi < 1 {
		unitsHi = 1
	}
	needy := bidders / 5
	if needy < 1 {
		needy = 1
	}
	coverHi := 4
	if coverHi > needy {
		coverHi = needy
	}
	return workload.InstanceConfig{
		Bidders:       bidders,
		Needy:         needy,
		BidsPerBidder: bidsPerBidder,
		DemandLo:      lo,
		DemandHi:      hi,
		UnitsLo:       1,
		UnitsHi:       unitsHi,
		CoverLo:       1,
		CoverHi:       coverHi,
	}
}

// onlineConfig assembles the multi-round scenario configuration for the
// online sweeps. Lifetime capacities Θ scale with the request factor: the
// paper's constraint (11) limits participation COUNT independent of load,
// so keeping the supply/demand balance comparable across request levels
// requires Θ to grow with the residual demand — otherwise the R=200
// sweeps measure capacity starvation (reserve-pool purchases) rather than
// the online mechanism.
func onlineConfig(bidders, requests, bidsPerBidder, rounds int, windowed bool) workload.OnlineConfig {
	stage := stageConfig(bidders, requests, bidsPerBidder)
	factor := float64(requests) / 100
	base := stage.CoverHi + 1
	return workload.OnlineConfig{
		Rounds:          rounds,
		Stage:           stage,
		CapacityLo:      int(float64(base) * factor),
		CapacityHi:      int(float64(4*base) * factor),
		WindowedArrival: windowed,
	}
}

// denominator computes the offline-optimal denominator for an instance:
// the exact optimum when the solver closes, else its proven lower bound.
func denominator(ins *core.Instance, opts optimal.Options) (float64, bool, error) {
	res, err := optimal.Solve(ins, opts)
	if err != nil {
		return 0, false, fmt.Errorf("experiments: offline optimum: %w", err)
	}
	if res.Exact {
		return res.Cost, true, nil
	}
	return res.LowerBound, false, nil
}

// meanRatio averages numerator/denominator guarding zero denominators.
func meanRatio(num, den *metrics.Running) float64 {
	if den.Sum() <= 0 {
		return 0
	}
	return num.Sum() / den.Sum()
}
