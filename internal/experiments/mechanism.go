package experiments

import (
	"fmt"
	"strings"

	"edgeauction/internal/core"
	"edgeauction/internal/metrics"
	"edgeauction/internal/workload"
)

// AblationCapacity studies Theorem 7's knob empirically: as bidder
// capacities Θ grow (β = min Θ_i/|S_ij| grows), the theoretical
// competitive bound αβ/(β−1) tightens toward α and the measured long-run
// cost of MSOA approaches the per-round offline optimum sum. Capacity
// factor 1 means the tightest generator default; larger factors multiply
// every Θ_i.
func AblationCapacity(cfg Config) (*AblationResult, error) {
	c := cfg.withDefaults()
	n := 25
	rounds := 12
	if c.Quick {
		n = 10
		rounds = 4
	}
	factors := []float64{1, 1.5, 2, 3, 5}
	type cell struct {
		cost, opt, alpha, beta float64
		exactOpt, totalOpt     int
	}
	cells, err := runSweep(c, "ablation-capacity", len(factors), func(rng *workload.Rand, p, _ int) (cell, error) {
		factor := factors[p]
		stage := stageConfig(n, 100, 2)
		scn := workload.Online(rng, workload.OnlineConfig{
			Rounds:     rounds,
			Stage:      stage,
			CapacityLo: stage.CoverHi + 1,
			CapacityHi: 2 * (stage.CoverHi + 1),
		})
		for b := range scn.Capacity {
			scn.Capacity[b] = int(float64(scn.Capacity[b]) * factor)
		}
		mcfg := scn.Config(c.auctionOptions(false))
		run, err := runOnline(scn.TrueRounds, mcfg, c.optOptions())
		if err != nil {
			return cell{}, fmt.Errorf("experiments: ablation capacity factor %v: %w", factor, err)
		}
		v := cell{
			cost:     run.SocialCost + penalty(run),
			opt:      run.OptimalSum,
			exactOpt: run.ExactOpt,
			totalOpt: run.TotalOpt,
		}

		// Empirical α: the max per-round certified ratio of plain SSAM
		// on the same instances.
		v.alpha = 1.0
		for _, r := range scn.TrueRounds {
			out, err := core.SSAM(r.Instance, c.auctionOptions(false))
			if err != nil {
				continue
			}
			if rr := out.Dual.Ratio(); rr > v.alpha {
				v.alpha = rr
			}
		}
		v.beta = minBeta(mcfg, scn.TrueRounds)
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	measured := metrics.NewSeries("measured ratio")
	bound := metrics.NewSeries("bound αβ/(β−1)")
	betaSeries := metrics.NewSeries("β")
	var tally exactTally
	for p, trials := range cells {
		var cost, opt, betaAcc, alphaAcc metrics.Running
		for _, v := range trials {
			tally.addCounts(v.exactOpt, v.totalOpt)
			cost.Add(v.cost)
			opt.Add(v.opt)
			alphaAcc.Add(v.alpha)
			betaAcc.Add(v.beta)
		}
		factor := factors[p]
		measured.Add(factor, meanRatio(&cost, &opt))
		beta := betaAcc.Mean()
		alpha := alphaAcc.Mean()
		if beta > 1 {
			bound.Add(factor, alpha*beta/(beta-1))
		}
		betaSeries.Add(factor, beta)
	}
	return &AblationResult{
		Title:  "Ablation: capacity slack β vs online performance (x = capacity factor)",
		XLabel: "capacity factor",
		Series: []*metrics.Series{measured, bound, betaSeries},
		Notes: []string{
			"Theorem 7: cost/OPT ≤ αβ/(β−1); the bound tightens as capacities relax",
			fmt.Sprintf("exact offline optima: %.0f%%", tally.fraction()*100),
		},
	}, nil
}

func minBeta(cfg core.MSOAConfig, rounds []core.Round) float64 {
	beta := 0.0
	first := true
	for _, r := range rounds {
		for i := range r.Instance.Bids {
			b := &r.Instance.Bids[i]
			theta, ok := cfg.Capacity[b.Bidder]
			if !ok || theta <= 0 || len(b.Covers) == 0 {
				continue
			}
			ratio := float64(theta) / float64(len(b.Covers))
			if first || ratio < beta {
				beta, first = ratio, false
			}
		}
	}
	if first {
		return 0
	}
	return beta
}

// TruthfulnessSweepResult is the empirical mechanism-validation sweep: for
// random instances and random unilateral price misreports, how often does
// a deviation beat truthful bidding, and by how much? The paper proves
// zero for SSAM (Theorem 4); this sweep checks the implementation and
// quantifies the multi-bid caveat discussed in DESIGN.md.
type TruthfulnessSweepResult struct {
	// Deviations is the number of (instance, bid, misreport) probes.
	Deviations int
	// ViolationsSingle counts profitable deviations with J=1 (must be 0).
	ViolationsSingle int
	// ViolationsMulti counts profitable deviations with J=2 caused by
	// cross-alternative switching (expected rare; reported honestly).
	ViolationsMulti int
	// MaxGainMulti is the largest observed profitable-deviation gain with
	// J=2, relative to the truthful utility baseline.
	MaxGainMulti float64
}

// TruthfulnessSweep probes truthfulness empirically. Each probed instance
// is one trial of the sweep runner, so the (instance × deviation) grid
// fans out across the trial pool.
func TruthfulnessSweep(cfg Config) (*TruthfulnessSweepResult, error) {
	c := cfg.withDefaults()
	instances := 30
	if c.Quick {
		instances = 8
	}
	// One J=1 and one J=2 instance per trial, probed as the arena
	// probes every competitor.
	cells, err := runTrials(c, "truthfulness", instances, func(rng *workload.Rand, _ int) ([2]regret, error) {
		var regs [2]regret
		for i := range regs {
			ins, bidders := probeInstance(rng, i+1)
			reg, err := probeRegret(core.MechanismSpec{Name: core.NameSSAM}, ins, bidders, c.auctionOptions(true))
			if err != nil {
				return regs, fmt.Errorf("experiments: truthfulness sweep: %w", err)
			}
			regs[i] = reg
		}
		return regs, nil
	})
	if err != nil {
		return nil, err
	}

	res := &TruthfulnessSweepResult{}
	for _, regs := range cells {
		single, multi := regs[0], regs[1]
		res.Deviations += single.probes + multi.probes
		res.ViolationsSingle += single.profitable
		res.ViolationsMulti += multi.profitable
		res.MaxGainMulti = max(res.MaxGainMulti, multi.maxGain)
	}
	return res, nil
}

// Render formats the sweep result.
func (r *TruthfulnessSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Mechanism validation: empirical truthfulness sweep\n")
	fmt.Fprintf(&b, "deviations probed:              %d\n", r.Deviations)
	fmt.Fprintf(&b, "profitable deviations (J=1):    %d (Theorem 4 requires 0)\n", r.ViolationsSingle)
	fmt.Fprintf(&b, "profitable deviations (J=2):    %d (cross-alternative switching; see DESIGN.md)\n", r.ViolationsMulti)
	if r.ViolationsMulti > 0 {
		fmt.Fprintf(&b, "max multi-bid deviation gain:   %.4f\n", r.MaxGainMulti)
	}
	return b.String()
}
