package experiments

import (
	"fmt"
	"strings"

	"edgeauction/internal/core"
	"edgeauction/internal/metrics"
	"edgeauction/internal/workload"
)

// WinningStatsResult covers the remaining §V metrics the paper lists but
// does not plot as standalone figures: the distribution of winning-bid
// prices and the percentage of submitted bids that win, as the market
// grows.
type WinningStatsResult struct {
	// WinPercent is the share of submitted bids that win vs |S|.
	WinPercent *metrics.Series
	// BidderWinPercent is the share of bidders with a winning bid vs |S|.
	BidderWinPercent *metrics.Series
	// PriceHistogram is the winning-price distribution pooled over the
	// sweep (bucketed over the §V-A price range [10, 35]).
	PriceHistogram *metrics.Histogram
	// WinningPrices retains the pooled winning prices for quantiles.
	WinningPrices *metrics.Sample
}

// winningStatsCell is one (|S|, trial) auction's market statistics.
type winningStatsCell struct {
	winPct, bidderPct   float64
	hasBids, hasBidders bool
	prices              []float64
}

// WinningStats runs the §V supplementary sweep.
func WinningStats(cfg Config) (*WinningStatsResult, error) {
	c := cfg.withDefaults()
	sizes := c.sizes()
	cells, err := runSweep(c, "winstats", len(sizes), func(rng *workload.Rand, p, _ int) (winningStatsCell, error) {
		n := sizes[p]
		ins := workload.Instance(rng, stageConfig(n, 100, 2))
		out, err := core.SSAM(ins, c.auctionOptions(true))
		if err != nil {
			return winningStatsCell{}, fmt.Errorf("experiments: winning stats n=%d: %w", n, err)
		}
		// Exclude the platform reserve from market statistics.
		marketBids := 0
		bidders := map[int]struct{}{}
		for _, b := range ins.Bids {
			if workload.IsReserveBid(b, n) {
				continue
			}
			marketBids++
			bidders[b.Bidder] = struct{}{}
		}
		var v winningStatsCell
		winners := 0
		winningBidders := map[int]struct{}{}
		for _, w := range out.Winners {
			b := ins.Bids[w]
			if workload.IsReserveBid(b, n) {
				continue
			}
			winners++
			winningBidders[b.Bidder] = struct{}{}
			v.prices = append(v.prices, b.Price)
		}
		if marketBids > 0 {
			v.hasBids = true
			v.winPct = 100 * float64(winners) / float64(marketBids)
		}
		if len(bidders) > 0 {
			v.hasBidders = true
			v.bidderPct = 100 * float64(len(winningBidders)) / float64(len(bidders))
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	res := &WinningStatsResult{
		WinPercent:       metrics.NewSeries("winning bids %"),
		BidderWinPercent: metrics.NewSeries("winning bidders %"),
		PriceHistogram:   metrics.NewHistogram(10, 35, 10),
		WinningPrices:    metrics.NewSample(256),
	}
	for p, trials := range cells {
		var winPct, bidderPct metrics.Running
		for _, v := range trials {
			if v.hasBids {
				winPct.Add(v.winPct)
			}
			if v.hasBidders {
				bidderPct.Add(v.bidderPct)
			}
			// Pooled in deterministic (point, trial, winner) order so the
			// histogram and quantile sample render identically at every
			// parallelism level.
			for _, price := range v.prices {
				res.PriceHistogram.Add(price)
				res.WinningPrices.Add(price)
			}
		}
		res.WinPercent.Add(float64(sizes[p]), winPct.Mean())
		res.BidderWinPercent.Add(float64(sizes[p]), bidderPct.Mean())
	}
	return res, nil
}

// Curves returns the per-bid and per-bidder win-percentage series.
func (r *WinningStatsResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.WinPercent, r.BidderWinPercent}
}

// Render formats the result.
func (r *WinningStatsResult) Render() string {
	var b strings.Builder
	b.WriteString("Supplementary (§V): winning-bid percentage and price distribution\n")
	b.WriteString(metrics.Table("microservices", r.Curves()...))
	fmt.Fprintf(&b, "winning price quantiles: p25=%.2f median=%.2f p75=%.2f\n",
		r.WinningPrices.Quantile(0.25), r.WinningPrices.Median(), r.WinningPrices.Quantile(0.75))
	b.WriteString("winning price distribution:\n")
	b.WriteString(r.PriceHistogram.Render(32))
	return b.String()
}
