package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/optimal"
	"edgeauction/internal/workload"
)

// offlineParams sizes the offline-optimum workload: Figure 5(a)-shaped
// online scenarios (§V-A: T rounds, J bids per bidder) over a grid of
// microservice counts |S| and request levels R.
type offlineParams struct {
	Sizes         []int // |S|
	Requests      []int // R
	Reps          int   // scenarios per (R, |S|) point
	Rounds        int   // T
	BidsPerBidder int   // J
	// MaxNodes is the branch-and-bound node budget of every solve. The
	// wall-clock TimeLimit is set far beyond any solve, so the work done
	// is a pure function of the seed.
	MaxNodes  int
	SetupReps int // times the scenarios are generated to time set-up
}

var offlineFull = offlineParams{
	Sizes:         []int{25, 35, 45, 55, 65, 75},
	Requests:      []int{100, 200},
	Reps:          4,
	Rounds:        10,
	BidsPerBidder: 2,
	MaxNodes:      30,
	SetupReps:     9,
}

var offlineTiny = offlineParams{
	Sizes:         []int{10},
	Requests:      []int{100},
	Reps:          1,
	Rounds:        3,
	BidsPerBidder: 2,
	MaxNodes:      20,
	SetupReps:     2,
}

// onlineConfig mirrors the §V-A generator settings of the Figure 5(a)
// sweep: demand scales with the request level, per-bid supply with its
// square root, lifetime capacities Θ with the request level.
func onlineConfig(bidders, requests, bids, rounds int) workload.OnlineConfig {
	factor := float64(requests) / 100
	unitsHi := max(int(10*math.Sqrt(factor)+0.5), 1)
	needy := max(bidders/5, 1)
	coverHi := min(4, needy)
	stage := workload.InstanceConfig{
		Bidders:       bidders,
		Needy:         needy,
		BidsPerBidder: bids,
		DemandLo:      max(int(10*factor), 1),
		DemandHi:      max(int(40*factor), 1),
		UnitsLo:       1,
		UnitsHi:       unitsHi,
		CoverLo:       1,
		CoverHi:       coverHi,
	}
	base := coverHi + 1
	return workload.OnlineConfig{
		Rounds:     rounds,
		Stage:      stage,
		CapacityLo: int(float64(base) * factor),
		CapacityHi: int(float64(4*base) * factor),
	}
}

// generate draws every scenario of the workload from the seed. Each
// scenario has its own derived stream, so the set is a pure function of
// (seed, params).
func (p offlineParams) generate(seed int64, spans *spanLog) []*workload.Scenario {
	var out []*workload.Scenario
	point := 0
	for _, reqs := range p.Requests {
		for _, n := range p.Sizes {
			for rep := 0; rep < p.Reps; rep++ {
				rng := workload.NewDerived(seed, "perfbench/offline-optimum", point, rep)
				id := spans.open(0, 0, "workload.Online")
				out = append(out, workload.Online(rng, onlineConfig(n, reqs, p.BidsPerBidder, p.Rounds)))
				spans.close(id)
			}
			point++
		}
	}
	return out
}

// offlineRound is the outcome of one round: MSOA's social cost and the
// offline optimum's.
type offlineRound struct {
	socialCost float64
	optCost    float64
	exact      bool
	nodes      int
}

// offlinePhase is one timed phase of the offline-optimum workload.
type offlinePhase struct {
	phaseCommon
	pass []offlineRound // the first pass's outcomes
}

// runOffline runs whole passes over the scenarios, at least one, for as
// close to the given seconds as whole passes allow. Every pass does the
// same work; count metrics come from the first, and later passes must
// repeat it exactly.
func runOffline(p offlineParams, seed int64, seconds float64, traced bool) *offlinePhase {
	ph := &offlinePhase{}
	if traced {
		ph.spans = newSpanLog()
		ph.events = &eventCounter{}
	}
	var scenarios []*workload.Scenario
	for i := 0; i < p.SetupReps; i++ {
		runtime.GC()
		start := time.Now()
		scenarios = p.generate(seed, ph.spans)
		ph.setup = append(ph.setup, time.Since(start).Seconds())
	}
	var rounds int
	for _, s := range scenarios {
		rounds += len(s.TrueRounds)
	}
	opts := optimal.Options{MaxNodes: p.MaxNodes, TimeLimit: time.Hour}
	auction := core.Options{}
	if ph.events != nil {
		auction.Tracer = ph.events
	}

	ph.pass = make([]offlineRound, rounds)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ph.clock.begin()
	for pass, passTime := 0, time.Duration(0); pass == 0 || time.Until(deadline) >= passTime/2; pass++ {
		passStart := time.Now()
		idx := 0
		for _, scn := range scenarios {
			m := core.NewMSOA(scn.Config(auction))
			for _, r := range scn.TrueRounds {
				trace := pass*rounds + idx + 1
				root := ph.spans.open(trace, 0, "round")
				ph.clock.roundStart()
				id := ph.spans.open(trace, root, "core.MSOA.RunRound")
				res := m.RunRound(r)
				ph.spans.close(id)
				id = ph.spans.open(trace, root, "optimal.Solve")
				sol, err := optimal.Solve(r.Instance, opts)
				ph.spans.close(id)
				ph.clock.roundEnd()
				ph.spans.close(root)
				ph.check(pass, idx, r, res, sol, err)
				idx++
			}
		}
		passTime = time.Since(passStart)
	}
	ph.clock.end()

	// The root LP bound of each round must lie below its optimum. The
	// bound is one more LP solve per round, so it is checked after the
	// timed window.
	idx := 0
	for _, scn := range scenarios {
		for _, r := range scn.TrueRounds {
			id := ph.spans.open(idx+1, 0, "optimal.LowerBound")
			lb, err := optimal.LowerBound(r.Instance)
			ph.spans.close(id)
			ph.attempted++
			switch {
			case err != nil:
				ph.fail("round %d: optimal.LowerBound: %v", r.T, err)
			case lb > ph.pass[idx].optCost+costEps:
				ph.fail("round %d: root LP bound %.6f above optimum cost %.6f", r.T, lb, ph.pass[idx].optCost)
			}
			idx++
		}
	}
	return ph
}

// costEps is the tolerance of the cost comparisons.
const costEps = 1e-6

// check verifies round idx of a pass. The first pass records its
// outcome; later passes must repeat it exactly.
func (ph *offlinePhase) check(pass, idx int, r core.Round, res *core.RoundResult, sol *optimal.Result, err error) {
	ph.attempted++
	if res.Err != nil {
		ph.fail("round %d: MSOA: %v", r.T, res.Err)
		return
	}
	if err != nil {
		ph.fail("round %d: optimal.Solve: %v", r.T, err)
		return
	}
	if err := checkOfflineRound(r.Instance, res.Outcome, sol); err != nil {
		ph.fail("round %d: %v", r.T, err)
		return
	}
	got := offlineRound{socialCost: res.Outcome.SocialCost, optCost: sol.Cost, exact: sol.Exact, nodes: sol.Nodes}
	if pass == 0 {
		ph.pass[idx] = got
	} else if ph.pass[idx] != got {
		ph.fail("round %d: pass %d differs from the first: %+v, first %+v", r.T, pass+1, got, ph.pass[idx])
	}
}

// checkOfflineRound checks one offline-optimum round: MSOA's outcome and
// the optimum are feasible, and the optimum is no worse than MSOA (a
// closed solve) or its proven lower bound is (a budget-limited solve).
func checkOfflineRound(ins *core.Instance, out *core.Outcome, sol *optimal.Result) error {
	if err := core.VerifyFeasible(ins, out); err != nil {
		return err
	}
	if err := core.VerifyFeasible(ins, &core.Outcome{Winners: sol.Winners}); err != nil {
		return fmt.Errorf("optimum: %w", err)
	}
	if sol.Exact && sol.Cost > out.SocialCost+costEps {
		return fmt.Errorf("exact optimum %.6f above MSOA social cost %.6f", sol.Cost, out.SocialCost)
	}
	if sol.LowerBound > min(sol.Cost, out.SocialCost)+costEps {
		return fmt.Errorf("optimum lower bound %.6f above optimum %.6f or MSOA social cost %.6f",
			sol.LowerBound, sol.Cost, out.SocialCost)
	}
	return nil
}

// digest summarizes the first pass.
func (ph *offlinePhase) digest() outcomeDigest {
	d := newDigest()
	for _, r := range ph.pass {
		d.add(r.socialCost, r.optCost, r.exact, r.nodes)
	}
	return d
}

func (ph *offlinePhase) perLayer(vals map[string]float64) {
	solve := ph.spans.durations("optimal.Solve")
	d := ph.digest()
	vals["optimal.solve_ms_p50"] = quantile(solve, 0.5)
	vals["optimal.solve_ms_p95"] = quantile(solve, 0.95)
	nodes := float64(d.Count) / float64(max(d.Rounds, 1))
	vals["optimal.nodes_per_solve"] = nodes
	vals["optimal.exact_share"] = float64(d.Exact) / float64(max(d.Rounds, 1))
	// Every pass explores the nodes the first did.
	vals["optimal.us_per_node"] = mean(solve) * 1e3 / max(nodes, 1)
	vals["lp.root_ms"] = mean(ph.spans.durations("optimal.LowerBound"))
	vals["core.msoa_round_ms"] = mean(ph.spans.durations("core.MSOA.RunRound"))
	n := float64(ph.clock.rounds())
	vals["core.greedy_picks_per_round"] = float64(ph.events.picks.Load()) / n
	vals["core.payment_replays_per_round"] = float64(ph.events.replays.Load()) / n
	vals["workload.online_ms"] = mean(ph.spans.durations("workload.Online"))
}

func (ph *offlinePhase) digestLine() string {
	d := ph.digest()
	return fmt.Sprintf("rounds=%d social_cost_sum=%.6f opt_cost_sum=%.6f exact=%d nodes=%d sha256=%s",
		d.Rounds, d.Cost, d.Second, d.Exact, d.Count, d.sum())
}
