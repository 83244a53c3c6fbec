package experiments

import (
	"fmt"
	"strings"

	"edgeauction/internal/metrics"
	"edgeauction/internal/workload"
)

// Fig6aResult reproduces Figure 6(a): MSOA's performance ratio vs the
// number of rounds T, for different numbers of alternative bids per bidder
// J. The paper observes that larger J and larger T both degrade the ratio.
type Fig6aResult struct {
	RatioByJ map[int]*metrics.Series
	// ExactFraction is the share of per-round denominators solved to
	// optimality.
	ExactFraction float64
}

// fig6aCell is one (J, T, trial) scenario run.
type fig6aCell struct {
	cost, opt          float64
	exactOpt, totalOpt int
}

// Fig6a runs the rounds/bids sweep with windowed bidder arrivals as in
// §V-A (t⁻, t⁺ drawn within [1, T]).
func Fig6a(cfg Config) (*Fig6aResult, error) {
	c := cfg.withDefaults()
	js := []int{1, 2, 4}
	ts := []int{1, 3, 5, 7, 9, 11, 13, 15}
	n := 25
	if c.Quick {
		ts = []int{1, 3}
		n = 10
	}
	type point struct{ j, t int }
	points := make([]point, 0, len(js)*len(ts))
	for _, j := range js {
		for _, t := range ts {
			points = append(points, point{j, t})
		}
	}
	cells, err := runSweep(c, "fig6a", len(points), func(rng *workload.Rand, p, _ int) (fig6aCell, error) {
		j, t := points[p].j, points[p].t
		scn := workload.Online(rng, onlineConfig(n, 100, j, t, true))
		run, err := runOnline(scn.TrueRounds, c.msoaConfig(scn, false), c.optOptions())
		if err != nil {
			return fig6aCell{}, fmt.Errorf("experiments: fig6a T=%d J=%d: %w", t, j, err)
		}
		return fig6aCell{cost: run.SocialCost, opt: run.OptimalSum, exactOpt: run.ExactOpt, totalOpt: run.TotalOpt}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig6aResult{RatioByJ: make(map[int]*metrics.Series)}
	var tally exactTally
	for _, j := range js {
		res.RatioByJ[j] = metrics.NewSeries(fmt.Sprintf("ratio J=%d", j))
	}
	for p, trials := range cells {
		var cost, opt metrics.Running
		for _, cell := range trials {
			tally.addCounts(cell.exactOpt, cell.totalOpt)
			cost.Add(cell.cost)
			opt.Add(cell.opt)
		}
		res.RatioByJ[points[p].j].Add(float64(points[p].t), meanRatio(&cost, &opt))
	}
	res.ExactFraction = tally.fraction()
	return res, nil
}

// Curves returns the ratio series for J=1, 2 and 4.
func (r *Fig6aResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.RatioByJ[1], r.RatioByJ[2], r.RatioByJ[4]}
}

// Render formats the result as an aligned table.
func (r *Fig6aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6(a): MSOA performance ratio vs rounds T, per bids-per-bidder J\n")
	b.WriteString(metrics.Table("rounds", r.Curves()...))
	fmt.Fprintf(&b, "exact offline optima: %.0f%%\n", r.ExactFraction*100)
	return b.String()
}

// Fig6bResult reproduces Figure 6(b): MSOA's long-run social cost, total
// payment, and the offline optimal cost vs the number of microservices,
// for 100 and 200 requests.
type Fig6bResult struct {
	ByRequests map[int]*Fig6bSeries
	// ExactFraction is the share of per-round denominators solved to
	// optimality.
	ExactFraction float64
}

// Fig6bSeries groups Figure 6(b)'s three curves for one request level.
type Fig6bSeries struct {
	SocialCost *metrics.Series
	Payment    *metrics.Series
	Optimal    *metrics.Series
}

// fig6bCell is one (R, |S|, trial) scenario run.
type fig6bCell struct {
	cost, pay, opt     float64
	exactOpt, totalOpt int
}

// Fig6b runs the online cost sweep (T=10 rounds).
func Fig6b(cfg Config) (*Fig6bResult, error) {
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
	cells, err := runSweep(c, "fig6b", len(points), func(rng *workload.Rand, p, _ int) (fig6bCell, error) {
		reqs, n := points[p].reqs, points[p].n
		scn := workload.Online(rng, onlineConfig(n, reqs, 2, rounds, false))
		run, err := runOnline(scn.TrueRounds, c.msoaConfig(scn, false), c.optOptions())
		if err != nil {
			return fig6bCell{}, fmt.Errorf("experiments: fig6b n=%d R=%d: %w", n, reqs, err)
		}
		return fig6bCell{
			cost: run.SocialCost, pay: run.Payment, opt: run.OptimalSum,
			exactOpt: run.ExactOpt, totalOpt: run.TotalOpt,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig6bResult{ByRequests: make(map[int]*Fig6bSeries)}
	var tally exactTally
	for _, reqs := range requests {
		res.ByRequests[reqs] = &Fig6bSeries{
			SocialCost: metrics.NewSeries(fmt.Sprintf("social cost R=%d", reqs)),
			Payment:    metrics.NewSeries(fmt.Sprintf("payment R=%d", reqs)),
			Optimal:    metrics.NewSeries(fmt.Sprintf("optimal R=%d", reqs)),
		}
	}
	for p, trials := range cells {
		var cost, pay, opt metrics.Running
		for _, cell := range trials {
			tally.addCounts(cell.exactOpt, cell.totalOpt)
			cost.Add(cell.cost)
			pay.Add(cell.pay)
			opt.Add(cell.opt)
		}
		set := res.ByRequests[points[p].reqs]
		set.SocialCost.Add(float64(points[p].n), cost.Mean())
		set.Payment.Add(float64(points[p].n), pay.Mean())
		set.Optimal.Add(float64(points[p].n), opt.Mean())
	}
	res.ExactFraction = tally.fraction()
	return res, nil
}

// Curves returns the three curves for 100, then 200 requests.
func (r *Fig6bResult) Curves() []*metrics.Series {
	s100, s200 := r.ByRequests[100], r.ByRequests[200]
	return []*metrics.Series{s100.SocialCost, s100.Payment, s100.Optimal, s200.SocialCost, s200.Payment, s200.Optimal}
}

// Render formats the result as an aligned table.
func (r *Fig6bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6(b): MSOA social cost, payment, optimal vs number of microservices\n")
	b.WriteString(metrics.Table("microservices", r.Curves()...))
	fmt.Fprintf(&b, "exact offline optima: %.0f%%\n", r.ExactFraction*100)
	return b.String()
}
