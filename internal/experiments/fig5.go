package experiments

import (
	"fmt"
	"strings"

	"edgeauction/internal/core"
	"edgeauction/internal/metrics"
	"edgeauction/internal/workload"
)

// Fig5aResult reproduces Figure 5(a): MSOA's performance ratio vs the
// number of microservices, for 100 and 200 requests.
type Fig5aResult struct {
	RatioByRequests map[int]*metrics.Series
	// InfeasibleRounds counts skipped rounds across the sweep.
	InfeasibleRounds int
	// ExactFraction is the share of per-round denominators solved to
	// optimality.
	ExactFraction float64
}

// fig5aCell is one (R, |S|, trial) scenario run.
type fig5aCell struct {
	cost, opt          float64
	infeasible         int
	exactOpt, totalOpt int
}

// Fig5a runs the Figure 5(a) sweep: T=10 rounds per scenario, plain MSOA
// on true demand.
func Fig5a(cfg Config) (*Fig5aResult, error) {
	c := cfg.withDefaults()
	rounds := 10
	if c.Quick {
		rounds = 3
	}
	requests := []int{100, 200}
	sizes := c.sizes()
	type point struct{ reqs, n int }
	points := make([]point, 0, len(requests)*len(sizes))
	for _, reqs := range requests {
		for _, n := range sizes {
			points = append(points, point{reqs, n})
		}
	}
	cells, err := runSweep(c, "fig5a", len(points), func(rng *workload.Rand, p, _ int) (fig5aCell, error) {
		reqs, n := points[p].reqs, points[p].n
		scn := workload.Online(rng, onlineConfig(n, reqs, 2, rounds, false))
		run, err := runOnline(scn.TrueRounds, c.msoaConfig(scn, false), c.optOptions())
		if err != nil {
			return fig5aCell{}, fmt.Errorf("experiments: fig5a n=%d R=%d: %w", n, reqs, err)
		}
		return fig5aCell{
			cost: run.SocialCost, opt: run.OptimalSum, infeasible: run.Infeasible,
			exactOpt: run.ExactOpt, totalOpt: run.TotalOpt,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig5aResult{RatioByRequests: make(map[int]*metrics.Series)}
	var tally exactTally
	for _, reqs := range requests {
		res.RatioByRequests[reqs] = metrics.NewSeries(fmt.Sprintf("ratio R=%d", reqs))
	}
	for p, trials := range cells {
		var cost, opt metrics.Running
		for _, cell := range trials {
			res.InfeasibleRounds += cell.infeasible
			tally.addCounts(cell.exactOpt, cell.totalOpt)
			cost.Add(cell.cost)
			opt.Add(cell.opt)
		}
		res.RatioByRequests[points[p].reqs].Add(float64(points[p].n), meanRatio(&cost, &opt))
	}
	res.ExactFraction = tally.fraction()
	return res, nil
}

// Curves returns the ratio series for 100 and 200 requests.
func (r *Fig5aResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.RatioByRequests[100], r.RatioByRequests[200]}
}

// Render formats the result as an aligned table.
func (r *Fig5aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5(a): MSOA performance ratio vs number of microservices\n")
	b.WriteString(metrics.Table("microservices", r.Curves()...))
	fmt.Fprintf(&b, "infeasible rounds skipped: %d\n", r.InfeasibleRounds)
	fmt.Fprintf(&b, "exact offline optima: %.0f%%\n", r.ExactFraction*100)
	return b.String()
}

// Fig5bResult reproduces Figure 5(b) (the paper's variant comparison in
// §V-B): the performance ratio of MSOA, MSOA-DA, MSOA-RC, and MSOA-OA vs
// the number of microservices. Variant costs are measured against a common
// denominator — the per-round offline optima of the TRUE-demand rounds —
// so demand-estimation error shows up as extra cost, exactly the effect
// the paper attributes to the variants.
type Fig5bResult struct {
	RatioByVariant map[core.Variant]*metrics.Series
	// ExactFraction is the share of per-round denominators solved to
	// optimality.
	ExactFraction float64
}

// fig5bCell is one (|S|, trial) scenario run across all variants.
type fig5bCell struct {
	opt                float64
	costByVariant      map[core.Variant]float64
	exactOpt, totalOpt int
}

// Fig5b runs the variant comparison sweep.
func Fig5b(cfg Config) (*Fig5bResult, error) {
	c := cfg.withDefaults()
	variants := []core.Variant{core.VariantBase, core.VariantDA, core.VariantRC, core.VariantOA}
	rounds := 10
	if c.Quick {
		rounds = 3
	}
	sizes := c.sizes()
	cells, err := runSweep(c, "fig5b", len(sizes), func(rng *workload.Rand, p, _ int) (fig5bCell, error) {
		n := sizes[p]
		ocfg := onlineConfig(n, 100, 2, rounds, false)
		ocfg.DemandNoise = 0.35
		scn := workload.Online(rng, ocfg)
		baseCfg := c.msoaConfig(scn, false)
		// Common denominator from the true rounds, unconstrained.
		ref, err := runOnline(scn.TrueRounds, baseCfg, c.optOptions())
		if err != nil {
			return fig5bCell{}, fmt.Errorf("experiments: fig5b reference n=%d: %w", n, err)
		}
		cell := fig5bCell{
			opt:           ref.OptimalSum,
			costByVariant: make(map[core.Variant]float64, len(variants)),
			exactOpt:      ref.ExactOpt,
			totalOpt:      ref.TotalOpt,
		}
		for _, v := range variants {
			vr, vcfg := core.BuildVariant(v, core.VariantParams{}, scn.TrueRounds, scn.EstimatedRounds, baseCfg)
			run, err := runOnlineCostOnly(vr, vcfg)
			if err != nil {
				return fig5bCell{}, fmt.Errorf("experiments: fig5b %s n=%d: %w", v, n, err)
			}
			cell.costByVariant[v] = run.SocialCost
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig5bResult{RatioByVariant: make(map[core.Variant]*metrics.Series)}
	var tally exactTally
	for _, v := range variants {
		res.RatioByVariant[v] = metrics.NewSeries(v.String())
	}
	for p, trials := range cells {
		acc := make(map[core.Variant]*metrics.Running, len(variants))
		for _, v := range variants {
			acc[v] = &metrics.Running{}
		}
		var opt metrics.Running
		for _, cell := range trials {
			tally.addCounts(cell.exactOpt, cell.totalOpt)
			opt.Add(cell.opt)
			for _, v := range variants {
				acc[v].Add(cell.costByVariant[v])
			}
		}
		for _, v := range variants {
			res.RatioByVariant[v].Add(float64(sizes[p]), meanRatio(acc[v], &opt))
		}
	}
	res.ExactFraction = tally.fraction()
	return res, nil
}

// Curves returns the ratio series of MSOA, MSOA-DA, MSOA-RC and MSOA-OA.
func (r *Fig5bResult) Curves() []*metrics.Series {
	return []*metrics.Series{
		r.RatioByVariant[core.VariantBase], r.RatioByVariant[core.VariantDA],
		r.RatioByVariant[core.VariantRC], r.RatioByVariant[core.VariantOA],
	}
}

// Render formats the result as an aligned table.
func (r *Fig5bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5(b): MSOA variant performance ratio vs number of microservices\n")
	b.WriteString(metrics.Table("microservices", r.Curves()...))
	fmt.Fprintf(&b, "exact offline optima: %.0f%%\n", r.ExactFraction*100)
	return b.String()
}
