package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/metrics"
	"edgeauction/internal/workload"
)

// Fig4aResult reproduces Figure 4(a): each winning bid's payment plotted
// against its actual (bid) price — the individual-rationality picture. The
// paper's claim, "the payment is always greater than the price", is
// checked per winner.
type Fig4aResult struct {
	// Price and Payment share an x axis of winner rank (sorted by price).
	Price   *metrics.Series
	Payment *metrics.Series
	// Violations counts winners paid below their price (must be 0).
	Violations int
}

// Fig4a runs one representative auction (default parameters of §V-A) and
// collects the per-winner (price, payment) pairs.
func Fig4a(cfg Config) (*Fig4aResult, error) {
	c := cfg.withDefaults()
	rng := workload.NewDerived(c.Seed, "fig4a", 0, 0)
	n := 25
	if c.Quick {
		n = 10
	}
	ins := workload.Instance(rng, stageConfig(n, 100, 2))
	out, err := core.SSAM(ins, c.auctionOptions(false))
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4a SSAM: %w", err)
	}
	type pair struct{ price, pay float64 }
	pairs := make([]pair, 0, len(out.Winners))
	for _, w := range out.Winners {
		pairs = append(pairs, pair{price: ins.Bids[w].Price, pay: out.Payments[w]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].price < pairs[j].price })

	res := &Fig4aResult{
		Price:   metrics.NewSeries("price"),
		Payment: metrics.NewSeries("payment"),
	}
	for i, p := range pairs {
		res.Price.Add(float64(i+1), p.price)
		res.Payment.Add(float64(i+1), p.pay)
		if p.pay < p.price-1e-9 {
			res.Violations++
		}
	}
	return res, nil
}

// Curves returns the price and payment series per winner.
func (r *Fig4aResult) Curves() []*metrics.Series { return []*metrics.Series{r.Price, r.Payment} }

// Render formats the result as an aligned table.
func (r *Fig4aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4(a): payment vs actual price per winning bid\n")
	b.WriteString(metrics.Table("winner", r.Curves()...))
	fmt.Fprintf(&b, "individual-rationality violations: %d\n", r.Violations)
	return b.String()
}

// Fig4bResult reproduces Figure 4(b): SSAM's running time as the instance
// grows, for 100 and 200 requests. The paper reports sub-100ms runs that
// grow linearly.
type Fig4bResult struct {
	// MillisByRequests maps request count to mean wall time (ms) vs |S|.
	MillisByRequests map[int]*metrics.Series
}

// Fig4b measures SSAM wall time per sweep point. The sampled instances are
// deterministic per (point, trial) cell like every other driver's, but the
// measured times are physical: they vary run to run, and with
// TrialParallelism > 1 concurrent trials contend for cores and inflate
// each other's wall clock. For paper-grade timings run this figure with
// TrialParallelism 1.
func Fig4b(cfg Config) (*Fig4bResult, error) {
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
	cells, err := runSweep(c, "fig4b", len(points), func(rng *workload.Rand, p, _ int) (float64, error) {
		reqs, n := points[p].reqs, points[p].n
		ins := workload.Instance(rng, stageConfig(n, reqs, 2))
		start := time.Now()
		if _, err := core.SSAM(ins, c.auctionOptions(true)); err != nil {
			return 0, fmt.Errorf("experiments: fig4b SSAM n=%d: %w", n, err)
		}
		return float64(time.Since(start).Microseconds()) / 1000, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig4bResult{MillisByRequests: make(map[int]*metrics.Series)}
	for _, reqs := range requests {
		res.MillisByRequests[reqs] = metrics.NewSeries(fmt.Sprintf("ms R=%d", reqs))
	}
	for p, trials := range cells {
		var ms metrics.Running
		for _, v := range trials {
			ms.Add(v)
		}
		res.MillisByRequests[points[p].reqs].Add(float64(points[p].n), ms.Mean())
	}
	return res, nil
}

// Curves returns the running-time series for 100 and 200 requests.
func (r *Fig4bResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.MillisByRequests[100], r.MillisByRequests[200]}
}

// Render formats the result as an aligned table.
func (r *Fig4bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4(b): SSAM running time (ms) vs number of microservices\n")
	b.WriteString(metrics.Table("microservices", r.Curves()...))
	return b.String()
}
