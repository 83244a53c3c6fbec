package experiments

import (
	"fmt"
	"strings"

	"edgeauction/internal/core"
	"edgeauction/internal/metrics"
	"edgeauction/internal/workload"
)

// Fig3aResult reproduces Figure 3(a): SSAM's performance ratio (greedy cost
// over offline optimum) as the number of microservices grows, for one and
// for two alternative bids per bidder.
type Fig3aResult struct {
	// RatioByJ maps bids-per-bidder J to a series of mean ratio vs |S|.
	RatioByJ map[int]*metrics.Series
	// CertifiedByJ carries the mean certified bound W·Ξ per sweep point.
	CertifiedByJ map[int]*metrics.Series
	// ExactFraction is the share of denominators solved to optimality.
	ExactFraction float64
}

// fig3aCell is one (J, |S|, trial) measurement.
type fig3aCell struct {
	cost, den, cert float64
	exact           bool
}

// Fig3a runs the Figure 3(a) sweep.
func Fig3a(cfg Config) (*Fig3aResult, error) {
	c := cfg.withDefaults()
	js := []int{1, 2}
	sizes := c.sizes()
	type point struct{ j, n int }
	points := make([]point, 0, len(js)*len(sizes))
	for _, j := range js {
		for _, n := range sizes {
			points = append(points, point{j, n})
		}
	}
	cells, err := runSweep(c, "fig3a", len(points), func(rng *workload.Rand, p, _ int) (fig3aCell, error) {
		j, n := points[p].j, points[p].n
		ins := workload.Instance(rng, stageConfig(n, 100, j))
		out, err := core.SSAM(ins, c.auctionOptions(false))
		if err != nil {
			return fig3aCell{}, fmt.Errorf("experiments: fig3a SSAM n=%d: %w", n, err)
		}
		d, isExact, err := denominator(ins, c.optOptions())
		if err != nil {
			return fig3aCell{}, err
		}
		return fig3aCell{cost: out.SocialCost, den: d, cert: out.Dual.TheoreticalRatio(), exact: isExact}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig3aResult{
		RatioByJ:     make(map[int]*metrics.Series),
		CertifiedByJ: make(map[int]*metrics.Series),
	}
	var tally exactTally
	for _, j := range js {
		res.RatioByJ[j] = metrics.NewSeries(fmt.Sprintf("ratio J=%d", j))
		res.CertifiedByJ[j] = metrics.NewSeries(fmt.Sprintf("bound J=%d", j))
	}
	for p, trials := range cells {
		j, n := points[p].j, points[p].n
		var num, den, certAcc metrics.Running
		for _, cell := range trials {
			tally.add(cell.exact)
			num.Add(cell.cost)
			den.Add(cell.den)
			certAcc.Add(cell.cert)
		}
		res.RatioByJ[j].Add(float64(n), meanRatio(&num, &den))
		res.CertifiedByJ[j].Add(float64(n), certAcc.Mean())
	}
	res.ExactFraction = tally.fraction()
	return res, nil
}

// Curves returns the ratio and certified-bound series for J=1 and J=2.
func (r *Fig3aResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.RatioByJ[1], r.RatioByJ[2], r.CertifiedByJ[1], r.CertifiedByJ[2]}
}

// Render formats the result as an aligned table.
func (r *Fig3aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3(a): SSAM performance ratio vs number of microservices\n")
	b.WriteString(metrics.Table("microservices", r.Curves()...))
	fmt.Fprintf(&b, "exact offline optima: %.0f%%\n", r.ExactFraction*100)
	return b.String()
}

// Fig3bResult reproduces Figure 3(b): SSAM's social cost, total payment,
// and the offline-optimal cost as the number of microservices grows, for
// 100 and 200 user requests.
type Fig3bResult struct {
	// ByRequests maps the request count (100, 200) to the three series.
	ByRequests map[int]*Fig3bSeries
	// ExactFraction is the share of denominators solved to optimality.
	ExactFraction float64
}

// Fig3bSeries groups Figure 3(b)'s three curves for one request level.
type Fig3bSeries struct {
	SocialCost *metrics.Series
	Payment    *metrics.Series
	Optimal    *metrics.Series
}

// fig3bCell is one (R, |S|, trial) measurement.
type fig3bCell struct {
	cost, pay, opt float64
	exact          bool
}

// Fig3b runs the Figure 3(b) sweep.
func Fig3b(cfg Config) (*Fig3bResult, error) {
	c := cfg.withDefaults()
	requests := []int{100, 200}
	sizes := c.sizes()
	type point struct{ reqs, n int }
	points := make([]point, 0, len(requests)*len(sizes))
	for _, reqs := range requests {
		for _, n := range sizes {
			points = append(points, point{reqs, n})
		}
	}
	cells, err := runSweep(c, "fig3b", len(points), func(rng *workload.Rand, p, _ int) (fig3bCell, error) {
		reqs, n := points[p].reqs, points[p].n
		ins := workload.Instance(rng, stageConfig(n, reqs, 2))
		out, err := core.SSAM(ins, c.auctionOptions(false))
		if err != nil {
			return fig3bCell{}, fmt.Errorf("experiments: fig3b SSAM n=%d R=%d: %w", n, reqs, err)
		}
		d, isExact, err := denominator(ins, c.optOptions())
		if err != nil {
			return fig3bCell{}, err
		}
		return fig3bCell{cost: out.SocialCost, pay: out.TotalPayment(), opt: d, exact: isExact}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig3bResult{ByRequests: make(map[int]*Fig3bSeries)}
	var tally exactTally
	for _, reqs := range requests {
		res.ByRequests[reqs] = &Fig3bSeries{
			SocialCost: metrics.NewSeries(fmt.Sprintf("social cost R=%d", reqs)),
			Payment:    metrics.NewSeries(fmt.Sprintf("payment R=%d", reqs)),
			Optimal:    metrics.NewSeries(fmt.Sprintf("optimal R=%d", reqs)),
		}
	}
	for p, trials := range cells {
		reqs, n := points[p].reqs, points[p].n
		var cost, pay, opt metrics.Running
		for _, cell := range trials {
			tally.add(cell.exact)
			cost.Add(cell.cost)
			pay.Add(cell.pay)
			opt.Add(cell.opt)
		}
		set := res.ByRequests[reqs]
		set.SocialCost.Add(float64(n), cost.Mean())
		set.Payment.Add(float64(n), pay.Mean())
		set.Optimal.Add(float64(n), opt.Mean())
	}
	res.ExactFraction = tally.fraction()
	return res, nil
}

// Curves returns the three curves for 100, then 200 requests.
func (r *Fig3bResult) Curves() []*metrics.Series {
	s100, s200 := r.ByRequests[100], r.ByRequests[200]
	return []*metrics.Series{s100.SocialCost, s100.Payment, s100.Optimal, s200.SocialCost, s200.Payment, s200.Optimal}
}

// Render formats the result as an aligned table.
func (r *Fig3bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3(b): SSAM social cost, payment, optimal vs number of microservices\n")
	b.WriteString(metrics.Table("microservices", r.Curves()...))
	fmt.Fprintf(&b, "exact offline optima: %.0f%%\n", r.ExactFraction*100)
	return b.String()
}
