package experiments

import (
	"fmt"
	"strings"

	"edgeauction/internal/core"
	"edgeauction/internal/federation"
	"edgeauction/internal/metrics"
	"edgeauction/internal/topology"
	"edgeauction/internal/workload"
)

// FederationResult quantifies the multi-cloud extension (§II's backhaul
// substrate): how much demand goes uncovered without cross-cloud
// borrowing, and what the borrowing premium costs, as the backhaul latency
// premium grows.
type FederationResult struct {
	// CoveredLocal is the fraction of cloud-rounds cleared by local-only
	// markets (independent of premium; shown as a flat reference).
	CoveredLocal float64
	// Covered is the fraction of cloud-rounds cleared (locally or
	// federated) per premium level.
	Covered *metrics.Series
	// Cost is the mean social cost per cleared cloud-round per premium.
	Cost *metrics.Series
	// Borrowed is the mean borrowed coverage slots per round per premium.
	Borrowed *metrics.Series
}

// federationCell is one (premium, trial) multi-round federation run.
type federationCell struct {
	cleared, total, borrowed int
	costSum                  float64
	costN                    int
	localCleared, localTotal int
}

// Federation runs the borrowing sweep.
func Federation(cfg Config) (*FederationResult, error) {
	c := cfg.withDefaults()
	premiums := []float64{0.05, 0.25, 1, 4}
	rounds := 8
	clouds := 3
	if c.Quick {
		premiums = []float64{0.25, 4}
		rounds = 3
	}

	cells, err := runSweep(c, "federation", len(premiums), func(_ *workload.Rand, p, trial int) (federationCell, error) {
		// The topology is shared by every cell and the market draws are
		// keyed by trial alone (not by premium), so every premium level is
		// compared on identical substrates and identical market sequences —
		// a paired comparison, as in the serial driver.
		topo := topology.Generate(workload.NewDerived(c.Seed, "federation-topology", 0, 0),
			topology.Config{Clouds: clouds, Users: 30})
		rng := workload.NewDerived(c.Seed, "federation-markets", 0, trial)
		fed, err := federation.New(federation.Config{
			Topology:       topo,
			LatencyPremium: premiums[p],
			Auction:        core.MSOAConfig{DefaultCapacity: 10},
		})
		if err != nil {
			return federationCell{}, fmt.Errorf("experiments: federation: %w", err)
		}
		var v federationCell
		for t := 1; t <= rounds; t++ {
			markets := federationMarkets(rng, clouds)
			rr, err := fed.RunRound(t, markets)
			if err != nil {
				return federationCell{}, fmt.Errorf("experiments: federation round: %w", err)
			}
			for _, cr := range rr.Clouds {
				if cr.Outcome == nil && cr.Err == nil {
					continue // no demand
				}
				v.total++
				if cr.Err == nil {
					v.cleared++
					v.costSum += cr.Outcome.SocialCost
					v.costN++
				}
				// Local-only reference: a cloud round counts as locally
				// cleared iff it did not need federation.
				v.localTotal++
				if cr.Err == nil && !cr.Federated {
					v.localCleared++
				}
			}
			v.borrowed += rr.BorrowedSlots
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	res := &FederationResult{
		Covered:  metrics.NewSeries("covered fraction"),
		Cost:     metrics.NewSeries("cost per cleared round"),
		Borrowed: metrics.NewSeries("borrowed slots per round"),
	}
	var localCleared, localTotal int
	for p, trials := range cells {
		var cleared, total, borrowed, costN int
		var costSum float64
		for _, v := range trials {
			cleared += v.cleared
			total += v.total
			borrowed += v.borrowed
			costSum += v.costSum
			costN += v.costN
			// The local-only reference is premium-independent; tally it
			// from the first premium level only, like the serial driver
			// did.
			if p == 0 {
				localCleared += v.localCleared
				localTotal += v.localTotal
			}
		}
		frac := 0.0
		if total > 0 {
			frac = float64(cleared) / float64(total)
		}
		meanCost := 0.0
		if costN > 0 {
			meanCost = costSum / float64(costN)
		}
		res.Covered.Add(premiums[p], frac)
		res.Cost.Add(premiums[p], meanCost)
		res.Borrowed.Add(premiums[p], float64(borrowed)/float64(c.Trials*rounds))
	}
	if localTotal > 0 {
		res.CoveredLocal = float64(localCleared) / float64(localTotal)
	}
	return res, nil
}

// federationMarkets draws per-cloud markets with asymmetric supply: cloud
// 1 is balanced, cloud 2 supply-rich, cloud 3 demand-heavy, mirroring the
// motivating scenario of examples/federation.
func federationMarkets(rng *workload.Rand, clouds int) []federation.CloudMarket {
	markets := make([]federation.CloudMarket, 0, clouds)
	for cl := 1; cl <= clouds; cl++ {
		needy, suppliers := 2, 4
		switch cl % 3 {
		case 2: // supply-rich
			needy, suppliers = 1, 6
		case 0: // demand-heavy
			needy, suppliers = 3, 1
		}
		ins := &core.Instance{}
		slots := needy
		if slots < 3 {
			slots = 3
		}
		for k := 0; k < slots; k++ {
			d := 0
			if k < needy {
				d = rng.UniformInt(1, 2)
			}
			ins.Demand = append(ins.Demand, d)
		}
		for s := 0; s < suppliers; s++ {
			price := rng.Uniform(10, 35)
			ins.Bids = append(ins.Bids, core.Bid{
				Bidder:   cl*1000 + s,
				Price:    price,
				TrueCost: price,
				Covers:   rng.Subset(slots, 1+rng.Intn(slots)),
				Units:    rng.UniformInt(2, 4),
			})
		}
		markets = append(markets, federation.CloudMarket{Cloud: cl, Instance: ins})
	}
	return markets
}

// Curves returns the coverage, cost and borrowed-units series.
func (r *FederationResult) Curves() []*metrics.Series {
	return []*metrics.Series{r.Covered, r.Cost, r.Borrowed}
}

// Render formats the sweep.
func (r *FederationResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: cross-cloud borrowing vs backhaul latency premium\n")
	b.WriteString(metrics.Table("latency premium", r.Curves()...))
	fmt.Fprintf(&b, "local-only coverage (no federation): %.2f\n", r.CoveredLocal)
	return b.String()
}
