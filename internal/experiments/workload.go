package experiments

import (
	"fmt"
	"strings"

	"edgeauction/internal/core"
	"edgeauction/internal/metrics"
	"edgeauction/internal/sim"
	"edgeauction/internal/topology"
	"edgeauction/internal/workload"
)

// Workload sweeps: the topology-driven scenarios where the AHP demand
// indicators are computed by the discrete-event simulator from call-graph
// load (waiting, processing rate, utilization emerge from queueing) and
// auction outcomes feed back into the next round's fair shares via
// Simulator.ApplyTransfers — a closed loop, with nothing sampled i.i.d.
// on the demand path. All three drivers run head-to-head across
// mechanisms through Config.Mechanism, like every other sweep.

// transferUnitRate converts auctioned coverage units into simulator
// work-rate: one unit is 10 work units per time unit, mirroring the
// bridge's sizing of seller bids (one unit per 10 spare work-rate).
const transferUnitRate = 10

// workloadGraph resolves the topology a driver runs: Config.Graph when
// set (the -topology flag), else the named builtin.
func (c Config) workloadGraph(builtin string) (*workload.ServiceGraph, error) {
	if c.Graph != nil {
		if err := c.Graph.Validate(); err != nil {
			return nil, err
		}
		return c.Graph, nil
	}
	return workload.BuiltinGraph(builtin)
}

// workloadRun is one closed-loop simulation: sim -> bridge -> auction ->
// transfers -> sim.
type workloadRun struct {
	reports      []*sim.RoundReport
	auctioned    int
	infeasible   int
	needyPeak    int
	cost         float64
	payments     float64
	reserveUnits int
	totalUnits   int
	sla          int
}

// runWorkloadLoop drives the closed loop for one scenario cell. Winners
// adjust the next round's fair shares: each winning bid grants its
// covered needy microservices Units x transferUnitRate work-rate (split
// evenly across the cover) and drains the same amount from the selling
// microservice; reserve bids inject platform capacity without draining
// anyone.
func runWorkloadLoop(c Config, g *workload.ServiceGraph, topo *topology.Topology, rounds int, simSeed, bridgeSeed int64) (*workloadRun, error) {
	simulator, err := sim.New(sim.Config{Graph: g, Topology: topo, Rounds: rounds, Seed: simSeed})
	if err != nil {
		return nil, fmt.Errorf("experiments: workload simulator: %w", err)
	}
	// MaxUnits keeps saturated services (utilization pinned at 1 while
	// backlogged) from demanding unbounded coverage through the AHP rate
	// factor's utilization pole, and matches the sell side's granularity
	// (spare/10 units per bid). NeedyQueue 2 keeps services whose only
	// backlog is the round's in-flight tail request out of the demand side.
	bridge, err := sim.NewBridge(simulator, sim.BridgeConfig{Seed: bridgeSeed, MaxUnits: 10, NeedyQueue: 2})
	if err != nil {
		return nil, fmt.Errorf("experiments: workload bridge: %w", err)
	}
	auction := core.NewMSOA(core.MSOAConfig{
		// Sellers may participate every round of the sweep; lifetime
		// capacity is not the constraint under study here.
		DefaultCapacity:    4 * rounds,
		CapacityExemptFrom: sim.ReserveBidderID,
		Options:            c.auctionOptions(true),
		Mechanism:          c.Mechanism,
	})
	run := &workloadRun{}
	for r := 0; r < rounds; r++ {
		rep := simulator.RunRound()
		run.reports = append(run.reports, rep)
		for _, v := range rep.SLAViolations {
			run.sla += v
		}
		ar := bridge.Convert(rep)
		n := ar.Round.Instance.NumNeedy()
		if n == 0 {
			continue
		}
		if n > run.needyPeak {
			run.needyPeak = n
		}
		res := auction.RunRound(ar.Round)
		if res.Err != nil {
			run.infeasible++
			continue
		}
		run.auctioned++
		run.cost += res.Outcome.SocialCost
		run.payments += res.Outcome.TotalPayment()
		delta := make(map[int]float64)
		for _, w := range res.Outcome.Winners {
			bid := ar.Round.Instance.Bids[w]
			run.totalUnits += bid.Units
			grant := float64(bid.Units) * transferUnitRate / float64(len(bid.Covers))
			for _, k := range bid.Covers {
				delta[ar.NeedyIDs[k]] += grant
			}
			if bid.Bidder >= sim.ReserveBidderID {
				run.reserveUnits += bid.Units
			} else {
				delta[bid.Bidder] -= float64(bid.Units) * transferUnitRate
			}
		}
		simulator.ApplyTransfers(delta)
	}
	return run, nil
}

// meanOver averages f over all rounds of a run.
func (r *workloadRun) meanOver(f func(rep *sim.RoundReport) float64) float64 {
	if len(r.reports) == 0 {
		return 0
	}
	var acc metrics.Running
	for _, rep := range r.reports {
		acc.Add(f(rep))
	}
	return acc.Mean()
}

// hotServiceIndex picks the overload scenario's hot service: the one
// named "hot", else the highest-visit-rate service.
func hotServiceIndex(g *workload.ServiceGraph) int {
	if i := g.Index("hot"); i >= 0 {
		return i
	}
	best, bestRate := 0, -1.0
	for i, rate := range g.VisitRates(1) {
		if rate > bestRate {
			best, bestRate = i, rate
		}
	}
	return best
}

// callerIndices lists the services with a call edge into target.
func callerIndices(g *workload.ServiceGraph, target int) []int {
	name := g.Services[target].Name
	var out []int
	for i, s := range g.Services {
		for _, c := range s.Calls {
			if c.To == name {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// WorkloadOverloadResult is the cascading-overload sweep: one hot
// fan-in service's work is scaled up, and the starvation propagates —
// through the auction — into its colocated callers' fair shares.
type WorkloadOverloadResult struct {
	// HotBacklog is the hot service's mean end-of-round queue length.
	HotBacklog *metrics.Series
	// HotUtil is the hot service's mean utilization.
	HotUtil *metrics.Series
	// CallerAlloc is the callers' mean fair-share allocation — the
	// propagation signal: it falls as the hot service's demand rises.
	CallerAlloc *metrics.Series
	// CallerWait is the callers' mean request waiting time.
	CallerWait *metrics.Series
	// Cost is the mean per-scenario social cost of the auctioned rounds.
	Cost *metrics.Series
	// InfeasibleRounds counts skipped auction rounds across the sweep.
	InfeasibleRounds int
}

type overloadCell struct {
	hotBacklog, hotUtil, callerAlloc, callerWait, cost float64
	infeasible                                         int
}

// WorkloadOverload runs the cascading-overload sweep over the hot
// service's work multiplier.
func WorkloadOverload(cfg Config) (*WorkloadOverloadResult, error) {
	c := cfg.withDefaults()
	mults := []float64{1, 2, 3, 4}
	rounds := 40
	if c.Quick {
		mults = []float64{1, 3}
		rounds = 12
	}
	base, err := c.workloadGraph("overload")
	if err != nil {
		return nil, err
	}
	hot := hotServiceIndex(base)
	callers := callerIndices(base, hot)
	if len(callers) == 0 {
		return nil, fmt.Errorf("experiments: workload-overload: topology %q has no callers into %q", base.Name, base.Services[hot].Name)
	}
	hotID := hot + 1
	cells, err := runSweep(c, "workload-overload", len(mults), func(rng *workload.Rand, p, _ int) (overloadCell, error) {
		g := base.Clone()
		g.Services[hot].Work *= mults[p]
		run, err := runWorkloadLoop(c, g, nil, rounds, rng.Int63(), rng.Int63())
		if err != nil {
			return overloadCell{}, err
		}
		cell := overloadCell{cost: run.cost, infeasible: run.infeasible}
		cell.hotBacklog = run.meanOver(func(rep *sim.RoundReport) float64 {
			return float64(rep.QueueLengths[hotID])
		})
		cell.hotUtil = run.meanOver(func(rep *sim.RoundReport) float64 {
			return rep.Indicators[hotID].ExecutionRate
		})
		cell.callerAlloc = run.meanOver(func(rep *sim.RoundReport) float64 {
			var acc metrics.Running
			for _, ci := range callers {
				acc.Add(rep.Allocated[ci+1])
			}
			return acc.Mean()
		})
		cell.callerWait = run.meanOver(func(rep *sim.RoundReport) float64 {
			var acc metrics.Running
			for _, ci := range callers {
				acc.Add(rep.MeanWaiting[ci+1])
			}
			return acc.Mean()
		})
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	res := &WorkloadOverloadResult{
		HotBacklog:  metrics.NewSeries("hot backlog"),
		HotUtil:     metrics.NewSeries("hot util"),
		CallerAlloc: metrics.NewSeries("caller alloc"),
		CallerWait:  metrics.NewSeries("caller wait"),
		Cost:        metrics.NewSeries("social cost"),
	}
	for p, trials := range cells {
		var backlog, util, alloc, wait, cost metrics.Running
		for _, cell := range trials {
			res.InfeasibleRounds += cell.infeasible
			backlog.Add(cell.hotBacklog)
			util.Add(cell.hotUtil)
			alloc.Add(cell.callerAlloc)
			wait.Add(cell.callerWait)
			cost.Add(cell.cost)
		}
		x := mults[p]
		res.HotBacklog.Add(x, backlog.Mean())
		res.HotUtil.Add(x, util.Mean())
		res.CallerAlloc.Add(x, alloc.Mean())
		res.CallerWait.Add(x, wait.Mean())
		res.Cost.Add(x, cost.Mean())
	}
	return res, nil
}

// Curves returns the overload sweep's series.
func (r *WorkloadOverloadResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.HotBacklog, r.HotUtil, r.CallerAlloc, r.CallerWait, r.Cost}
}

// Render formats the result as an aligned table.
func (r *WorkloadOverloadResult) Render() string {
	var b strings.Builder
	b.WriteString("Workload: cascading overload — hot-service starvation propagating to callers' fair shares\n")
	b.WriteString(metrics.Table("hot work x", r.Curves()...))
	fmt.Fprintf(&b, "infeasible rounds skipped: %d\n", r.InfeasibleRounds)
	return b.String()
}

// WorkloadSpikesResult is the correlated-demand-spike sweep: the flash
// crowd's height scales up, spiking several needy microservices in the
// same rounds.
type WorkloadSpikesResult struct {
	// NeedyPeak is the peak per-round needy count.
	NeedyPeak *metrics.Series
	// ReserveUnits counts units bought from the platform reserve — the
	// expensive fallback correlated spikes force.
	ReserveUnits *metrics.Series
	// Cost is the mean per-scenario social cost.
	Cost *metrics.Series
	// SLA is the mean per-scenario SLA-violation count.
	SLA *metrics.Series
	// InfeasibleRounds counts skipped auction rounds across the sweep.
	InfeasibleRounds int
}

type spikesCell struct {
	needyPeak, reserveUnits, cost, sla float64
	infeasible                         int
}

// WorkloadSpikes runs the correlated-spike sweep over the flash height.
func WorkloadSpikes(cfg Config) (*WorkloadSpikesResult, error) {
	c := cfg.withDefaults()
	heights := []float64{0, 2, 4, 8}
	rounds := 24
	if c.Quick {
		heights = []float64{0, 4}
		rounds = 12
	}
	base, err := c.workloadGraph("spikes")
	if err != nil {
		return nil, err
	}
	cells, err := runSweep(c, "workload-spikes", len(heights), func(rng *workload.Rand, p, _ int) (spikesCell, error) {
		g := base.Clone()
		for i := range g.Entries {
			if g.Entries[i].Arrivals.Process == workload.ArrivalFlash {
				g.Entries[i].Arrivals.Height = heights[p]
			}
		}
		for i := range g.Flows {
			if g.Flows[i].Arrivals.Process == workload.ArrivalFlash {
				g.Flows[i].Arrivals.Height = heights[p]
			}
		}
		run, err := runWorkloadLoop(c, g, nil, rounds, rng.Int63(), rng.Int63())
		if err != nil {
			return spikesCell{}, err
		}
		return spikesCell{
			needyPeak:    float64(run.needyPeak),
			reserveUnits: float64(run.reserveUnits),
			cost:         run.cost,
			sla:          float64(run.sla),
			infeasible:   run.infeasible,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &WorkloadSpikesResult{
		NeedyPeak:    metrics.NewSeries("peak needy"),
		ReserveUnits: metrics.NewSeries("reserve units"),
		Cost:         metrics.NewSeries("social cost"),
		SLA:          metrics.NewSeries("SLA misses"),
	}
	for p, trials := range cells {
		var peak, reserve, cost, sla metrics.Running
		for _, cell := range trials {
			res.InfeasibleRounds += cell.infeasible
			peak.Add(cell.needyPeak)
			reserve.Add(cell.reserveUnits)
			cost.Add(cell.cost)
			sla.Add(cell.sla)
		}
		x := heights[p]
		res.NeedyPeak.Add(x, peak.Mean())
		res.ReserveUnits.Add(x, reserve.Mean())
		res.Cost.Add(x, cost.Mean())
		res.SLA.Add(x, sla.Mean())
	}
	return res, nil
}

// Curves returns the spike sweep's series.
func (r *WorkloadSpikesResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.NeedyPeak, r.ReserveUnits, r.Cost, r.SLA}
}

// Render formats the result as an aligned table.
func (r *WorkloadSpikesResult) Render() string {
	var b strings.Builder
	b.WriteString("Workload: correlated demand spikes — flash-crowd height vs market stress\n")
	b.WriteString(metrics.Table("flash height", r.Curves()...))
	fmt.Fprintf(&b, "infeasible rounds skipped: %d\n", r.InfeasibleRounds)
	return b.String()
}

// WorkloadFrontierResult is the capacity-frontier stress sweep: per-cloud
// capacity shrinks until queueing and the reserve pool dominate.
type WorkloadFrontierResult struct {
	// SLA is the mean per-scenario SLA-violation count.
	SLA *metrics.Series
	// ReserveShare is the fraction of auctioned units bought from the
	// platform reserve.
	ReserveShare *metrics.Series
	// MeanWait is the mean request waiting time across services/rounds.
	MeanWait *metrics.Series
	// Cost is the mean per-scenario social cost.
	Cost *metrics.Series
	// InfeasibleRounds counts skipped auction rounds across the sweep.
	InfeasibleRounds int
}

type frontierCell struct {
	sla, reserveShare, wait, cost float64
	infeasible                    int
}

// WorkloadFrontier runs the capacity-frontier sweep over per-cloud
// capacity.
func WorkloadFrontier(cfg Config) (*WorkloadFrontierResult, error) {
	c := cfg.withDefaults()
	caps := []float64{120, 100, 80, 60, 40}
	rounds := 24
	if c.Quick {
		caps = []float64{100, 60}
		rounds = 12
	}
	base, err := c.workloadGraph("frontier")
	if err != nil {
		return nil, err
	}
	cells, err := runSweep(c, "workload-frontier", len(caps), func(rng *workload.Rand, p, _ int) (frontierCell, error) {
		topo := topology.Generate(rng.Fork(), topology.Config{CloudCapacity: caps[p]})
		run, err := runWorkloadLoop(c, base.Clone(), topo, rounds, rng.Int63(), rng.Int63())
		if err != nil {
			return frontierCell{}, err
		}
		cell := frontierCell{
			sla:        float64(run.sla),
			cost:       run.cost,
			infeasible: run.infeasible,
		}
		if run.totalUnits > 0 {
			cell.reserveShare = float64(run.reserveUnits) / float64(run.totalUnits)
		}
		cell.wait = run.meanOver(func(rep *sim.RoundReport) float64 {
			var acc metrics.Running
			// Graph-mode microservice ids are 1..N; iterate in id order so
			// the float accumulation is deterministic (map order is not).
			for id := 1; id <= len(rep.MeanWaiting); id++ {
				acc.Add(rep.MeanWaiting[id])
			}
			return acc.Mean()
		})
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	res := &WorkloadFrontierResult{
		SLA:          metrics.NewSeries("SLA misses"),
		ReserveShare: metrics.NewSeries("reserve share"),
		MeanWait:     metrics.NewSeries("mean wait"),
		Cost:         metrics.NewSeries("social cost"),
	}
	for p, trials := range cells {
		var sla, share, wait, cost metrics.Running
		for _, cell := range trials {
			res.InfeasibleRounds += cell.infeasible
			sla.Add(cell.sla)
			share.Add(cell.reserveShare)
			wait.Add(cell.wait)
			cost.Add(cell.cost)
		}
		x := caps[p]
		res.SLA.Add(x, sla.Mean())
		res.ReserveShare.Add(x, share.Mean())
		res.MeanWait.Add(x, wait.Mean())
		res.Cost.Add(x, cost.Mean())
	}
	return res, nil
}

// Curves returns the frontier sweep's series.
func (r *WorkloadFrontierResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.SLA, r.ReserveShare, r.MeanWait, r.Cost}
}

// Render formats the result as an aligned table.
func (r *WorkloadFrontierResult) Render() string {
	var b strings.Builder
	b.WriteString("Workload: capacity frontier — per-cloud capacity vs queueing and reserve fallback\n")
	b.WriteString(metrics.Table("cloud capacity", r.Curves()...))
	fmt.Fprintf(&b, "infeasible rounds skipped: %d\n", r.InfeasibleRounds)
	return b.String()
}
