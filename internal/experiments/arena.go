package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"edgeauction/internal/core"
	"edgeauction/internal/workload"
)

// This file implements the mechanism arena: a head-to-head comparison of
// every registered competitor over the SAME seeded online workload. For
// each mechanism it measures
//
//   - social cost and platform outlay (payments − penalty income),
//   - the competitive ratio against the per-round offline optimum sum
//     (exact branch-and-bound when it closes, LP lower bound otherwise),
//   - truthfulness regret: the largest utility gain any single-bid
//     bidder extracts from a unilateral price misreport across seeded
//     single-stage probe instances (the probe grid TruthfulnessSweep
//     runs on SSAM, here run for every competitor).
//
// Mechanisms race on identical TrueRounds per trial; per-round offline
// denominators are accumulated per mechanism over the rounds it actually
// cleared, so a mechanism that drops rounds as infeasible is not charged
// an optimum it never attempted (the infeasible-round count is reported
// alongside).

// ArenaMechanism aggregates one competitor's arena metrics.
type ArenaMechanism struct {
	// Spec is the mechanism spec in flag syntax ("name:key=val,…").
	Spec string `json:"spec"`
	// Name is the registry name.
	Name string `json:"name"`
	// Rounds and InfeasibleRounds count attempted and dropped rounds
	// across all trials.
	Rounds           int `json:"rounds"`
	InfeasibleRounds int `json:"infeasible_rounds"`
	// SocialCost is Σ winning raw prices over all cleared rounds.
	SocialCost float64 `json:"social_cost"`
	// TotalPayment is the platform's remuneration outlay; Penalties is
	// its penalty income (double auction no-shows); PlatformOutlay is
	// their difference — the platform utility column, lower is better.
	TotalPayment   float64 `json:"total_payment"`
	Penalties      float64 `json:"penalties"`
	PlatformOutlay float64 `json:"platform_outlay"`
	// OptimalSum is the per-round offline denominator over cleared
	// rounds; CompetitiveRatio is SocialCost/OptimalSum (0 when
	// undefined); ExactOptShare is the fraction of denominators the
	// exact solver closed.
	OptimalSum       float64 `json:"optimal_sum"`
	CompetitiveRatio float64 `json:"competitive_ratio"`
	ExactOptShare    float64 `json:"exact_opt_share"`
	// RegretProbes counts (instance, bidder, factor) misreport probes;
	// ProfitableDeviations counts probes where the deviation beat
	// truthful reporting by more than 1e-6; MaxRegret is the largest
	// observed gain (0 for a mechanism truthful on the probe set).
	RegretProbes         int     `json:"regret_probes"`
	ProfitableDeviations int     `json:"profitable_deviations"`
	MaxRegret            float64 `json:"max_regret"`
}

// ArenaResult is the head-to-head table over all competitors.
type ArenaResult struct {
	Seed       int64            `json:"seed"`
	Trials     int              `json:"trials"`
	Rounds     int              `json:"rounds_per_trial"`
	Bidders    int              `json:"bidders"`
	Mechanisms []ArenaMechanism `json:"mechanisms"`
}

// DefaultArenaSpecs returns the standard three-way race: SSAM, the
// posted-price mechanism and the futures+spot double auction, all at
// their default parameters.
func DefaultArenaSpecs() []core.MechanismSpec {
	return []core.MechanismSpec{
		{Name: core.NameSSAM},
		{Name: core.NamePostedPrice},
		{Name: core.NameDoubleAuction},
	}
}

// arenaCell is one trial's per-mechanism measurements.
type arenaCell struct {
	runs    []arenaRun
	regrets []regret
}

type arenaRun struct {
	rounds, infeasible int
	cost, payment      float64
	penalties          float64
	optSum             float64
	exactOpt, totalOpt int
}

// regret is the outcome of a misreport probe grid: probes run, probes
// that beat truthful reporting, and the largest gain among them.
type regret struct {
	probes, profitable int
	maxGain            float64
}

// Arena races cfg.ArenaSpecs head-to-head; empty specs select
// DefaultArenaSpecs.
func Arena(cfg Config) (*ArenaResult, error) {
	c := cfg.withDefaults()
	specs := c.ArenaSpecs
	if len(specs) == 0 {
		specs = DefaultArenaSpecs()
	}
	for _, spec := range specs {
		if _, err := core.NewMechanism(spec); err != nil {
			return nil, fmt.Errorf("experiments: arena: %w", err)
		}
	}
	n, rounds, probeInstances := 25, 10, 4
	if c.Quick {
		n, rounds, probeInstances = 10, 4, 2
	}

	cells, err := runTrials(c, "arena", c.Trials, func(rng *workload.Rand, _ int) (arenaCell, error) {
		cell := arenaCell{
			runs:    make([]arenaRun, len(specs)),
			regrets: make([]regret, len(specs)),
		}
		// Online race: every mechanism clears the same scenario.
		scn := workload.Online(rng, onlineConfig(n, 100, 2, rounds, false))
		for si, spec := range specs {
			mcfg := scn.Config(c.auctionOptions(false))
			mcfg.Mechanism = spec
			run, err := runOnline(scn.TrueRounds, mcfg, c.optOptions())
			if err != nil {
				return arenaCell{}, fmt.Errorf("experiments: arena %s: %w", spec.String(), err)
			}
			cell.runs[si] = arenaRun{
				rounds: run.Rounds, infeasible: run.Infeasible,
				cost: run.SocialCost, payment: run.Payment,
				penalties: run.Penalties, optSum: run.OptimalSum,
				exactOpt: run.ExactOpt, totalOpt: run.TotalOpt,
			}
		}
		// Truthfulness regret probes: single-stage, single-bid (J=1)
		// instances; every mechanism faces the same misreports.
		probeRng := rng.Fork()
		for pi := 0; pi < probeInstances; pi++ {
			ins, nb := probeInstance(probeRng, 1)
			for si, spec := range specs {
				reg, err := probeRegret(spec, ins, nb, c.auctionOptions(true))
				if err != nil {
					return arenaCell{}, fmt.Errorf("experiments: arena regret %s: %w", spec.String(), err)
				}
				cell.regrets[si].probes += reg.probes
				cell.regrets[si].profitable += reg.profitable
				if reg.maxGain > cell.regrets[si].maxGain {
					cell.regrets[si].maxGain = reg.maxGain
				}
			}
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ArenaResult{Seed: c.Seed, Trials: c.Trials, Rounds: rounds, Bidders: n}
	for si, spec := range specs {
		m := ArenaMechanism{Spec: spec.String()}
		if m.Name = spec.Name; m.Name == "" {
			m.Name = core.NameSSAM
		}
		var tally exactTally
		for _, cell := range cells {
			run := cell.runs[si]
			m.Rounds += run.rounds
			m.InfeasibleRounds += run.infeasible
			m.SocialCost += run.cost
			m.TotalPayment += run.payment
			m.Penalties += run.penalties
			m.OptimalSum += run.optSum
			tally.addCounts(run.exactOpt, run.totalOpt)
			reg := cell.regrets[si]
			m.RegretProbes += reg.probes
			m.ProfitableDeviations += reg.profitable
			if reg.maxGain > m.MaxRegret {
				m.MaxRegret = reg.maxGain
			}
		}
		m.PlatformOutlay = m.TotalPayment - m.Penalties
		if m.OptimalSum > 0 {
			m.CompetitiveRatio = m.SocialCost / m.OptimalSum
		}
		m.ExactOptShare = tally.fraction()
		res.Mechanisms = append(res.Mechanisms, m)
	}
	return res, nil
}

// probeFactors are the misreports every probed bid tries, as multiples
// of its true cost.
var probeFactors = []float64{0.5, 0.8, 1.2, 1.6, 2.5}

// probeInstance draws one single-stage probe instance with bidsPerBidder
// alternatives per bidder and returns it with its bidder count.
func probeInstance(rng *workload.Rand, bidsPerBidder int) (*core.Instance, int) {
	bidders := 8 + rng.Intn(8)
	return workload.Instance(rng, workload.InstanceConfig{
		Bidders: bidders, BidsPerBidder: bidsPerBidder,
		DemandLo: 2, DemandHi: 8, UnitsLo: 1, UnitsHi: 3,
	}), bidders
}

// probeRegret runs the misreport probe grid for one mechanism on one
// instance: truthful clear, then every bid except the platform's reserve
// ladder tries every probe factor. Infeasible clears count as
// zero-utility outcomes — a mechanism that refuses to clear pays nobody.
func probeRegret(spec core.MechanismSpec, ins *core.Instance, bidders int, opts core.Options) (regret, error) {
	var reg regret
	truthful, err := core.RunMechanism(spec, ins, opts)
	if err != nil && !errors.Is(err, core.ErrInfeasible) {
		return reg, err
	}
	for target := range ins.Bids {
		if workload.IsReserveBid(ins.Bids[target], bidders) {
			continue // platform reserve ladder: not strategic
		}
		base := probeUtility(truthful, ins, target)
		for _, f := range probeFactors {
			dev := ins.Clone()
			dev.Bids[target].Price = ins.Bids[target].TrueCost * f
			out, err := core.RunMechanism(spec, dev, opts)
			if err != nil && !errors.Is(err, core.ErrInfeasible) {
				return reg, err
			}
			reg.probes++
			if gain := probeUtility(out, ins, target) - base; gain > 1e-6 {
				reg.profitable++
				if gain > reg.maxGain {
					reg.maxGain = gain
				}
			}
		}
	}
	return reg, nil
}

// probeUtility is the target bidder's utility under an outcome, with
// true cost taken from the ORIGINAL instance (the deviation changes only
// the report).
func probeUtility(out *core.Outcome, ins *core.Instance, idx int) float64 {
	if out == nil || !out.Won(idx) {
		return 0
	}
	return out.Payments[idx] - ins.Bids[idx].TrueCost
}

// JSON renders the result for results/ARENA.json.
func (r *ArenaResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render formats the head-to-head table.
func (r *ArenaResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mechanism arena: %d trials × %d rounds, %d bidders (seed %d)\n",
		r.Trials, r.Rounds, r.Bidders, r.Seed)
	fmt.Fprintf(&b, "%-28s %12s %14s %12s %10s %12s %10s\n",
		"mechanism", "social cost", "platform outlay", "penalties", "infeas", "ratio", "regret")
	for _, m := range r.Mechanisms {
		ratio := "n/a"
		if m.CompetitiveRatio > 0 {
			ratio = fmt.Sprintf("%.4f", m.CompetitiveRatio)
		}
		fmt.Fprintf(&b, "%-28s %12.2f %14.2f %12.2f %6d/%3d %12s %10.4f\n",
			m.Spec, m.SocialCost, m.PlatformOutlay, m.Penalties,
			m.InfeasibleRounds, m.Rounds, ratio, m.MaxRegret)
	}
	for _, m := range r.Mechanisms {
		fmt.Fprintf(&b, "  %-26s %d/%d profitable misreports, exact optima %.0f%%\n",
			m.Spec, m.ProfitableDeviations, m.RegretProbes, m.ExactOptShare*100)
	}
	return b.String()
}
