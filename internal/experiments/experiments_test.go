package experiments

import (
	"strings"
	"testing"

	"edgeauction/internal/core"
	"edgeauction/internal/metrics"
	"edgeauction/internal/workload"
)

func quickCfg() Config { return Config{Seed: 11, Quick: true} }

func TestFig3aShape(t *testing.T) {
	res, err := Fig3a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range res.RatioByJ {
		if s.Len() == 0 {
			t.Fatalf("J=%d: empty series", j)
		}
		for i, y := range s.Y {
			if y < 1-1e-6 {
				t.Fatalf("J=%d point %d: ratio %v below 1 (greedy beating the optimum is impossible)", j, i, y)
			}
			bound, ok := res.CertifiedByJ[j].At(s.X[i])
			if !ok {
				t.Fatalf("J=%d: missing certified bound at %v", j, s.X[i])
			}
			if y > bound+1e-6 {
				t.Fatalf("J=%d point %d: ratio %v exceeds certified bound %v", j, i, y, bound)
			}
		}
	}
	if !strings.Contains(res.Render(), "Figure 3(a)") {
		t.Fatal("render missing title")
	}
}

func TestFig3bShape(t *testing.T) {
	res, err := Fig3b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for reqs, set := range res.ByRequests {
		for i := range set.SocialCost.X {
			cost := set.SocialCost.Y[i]
			pay, _ := set.Payment.At(set.SocialCost.X[i])
			opt, _ := set.Optimal.At(set.SocialCost.X[i])
			if pay < cost-1e-6 {
				t.Fatalf("R=%d: payment %v below social cost %v", reqs, pay, cost)
			}
			if opt > cost+1e-6 {
				t.Fatalf("R=%d: optimal %v above greedy cost %v", reqs, opt, cost)
			}
		}
	}
	// More requests => more residual demand => higher cost in aggregate
	// (pointwise comparisons are noisy at quick-mode trial counts).
	s100, s200 := res.ByRequests[100], res.ByRequests[200]
	var sum100, sum200 float64
	for i := range s100.SocialCost.Y {
		sum100 += s100.SocialCost.Y[i]
	}
	for i := range s200.SocialCost.Y {
		sum200 += s200.SocialCost.Y[i]
	}
	if sum200 < sum100*0.95 {
		t.Fatalf("aggregate cost with 200 requests (%v) clearly below 100-request cost (%v)", sum200, sum100)
	}
}

func TestFig4aNoViolations(t *testing.T) {
	res, err := Fig4a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d individual-rationality violations", res.Violations)
	}
	if res.Price.Len() == 0 {
		t.Fatal("no winners recorded")
	}
	for i := range res.Price.Y {
		if res.Payment.Y[i] < res.Price.Y[i]-1e-9 {
			t.Fatalf("winner %d paid %v below price %v", i, res.Payment.Y[i], res.Price.Y[i])
		}
	}
}

func TestFig4bTimings(t *testing.T) {
	res, err := Fig4b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for reqs, s := range res.MillisByRequests {
		for i, y := range s.Y {
			if y < 0 {
				t.Fatalf("R=%d point %d: negative time %v", reqs, i, y)
			}
			if y > 100 {
				t.Fatalf("R=%d point %d: SSAM took %vms, paper reports <100ms at this scale", reqs, i, y)
			}
		}
	}
}

func TestFig5aShape(t *testing.T) {
	res, err := Fig5a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for reqs, s := range res.RatioByRequests {
		if s.Len() == 0 {
			t.Fatalf("R=%d: empty series", reqs)
		}
		for i, y := range s.Y {
			if y < 1-1e-6 {
				t.Fatalf("R=%d point %d: online ratio %v below 1", reqs, i, y)
			}
			if y > 25 {
				t.Fatalf("R=%d point %d: online ratio %v implausibly large", reqs, i, y)
			}
		}
	}
}

func TestFig5bVariantOrdering(t *testing.T) {
	res, err := Fig5b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	da := res.RatioByVariant[core.VariantDA]
	base := res.RatioByVariant[core.VariantBase]
	if da.Len() == 0 || base.Len() == 0 {
		t.Fatal("missing variant series")
	}
	// DA (oracle demand) should not cost more than the noisy base on
	// aggregate: compare sweep means.
	var daMean, baseMean float64
	for i := range da.Y {
		daMean += da.Y[i]
	}
	daMean /= float64(da.Len())
	for i := range base.Y {
		baseMean += base.Y[i]
	}
	baseMean /= float64(base.Len())
	if daMean > baseMean*1.15 {
		t.Fatalf("MSOA-DA mean ratio %v clearly worse than base %v; oracle demand should help", daMean, baseMean)
	}
}

func TestFig6aShape(t *testing.T) {
	res, err := Fig6a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range res.RatioByJ {
		if s.Len() == 0 {
			t.Fatalf("J=%d: empty series", j)
		}
		for i, y := range s.Y {
			if y < 1-1e-6 {
				t.Fatalf("J=%d point %d: ratio %v below 1", j, i, y)
			}
		}
	}
}

func TestFig6bShape(t *testing.T) {
	res, err := Fig6b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for reqs, set := range res.ByRequests {
		for i := range set.SocialCost.X {
			pay, _ := set.Payment.At(set.SocialCost.X[i])
			if pay < set.SocialCost.Y[i]-1e-6 {
				t.Fatalf("R=%d: payment %v below cost %v", reqs, pay, set.SocialCost.Y[i])
			}
		}
	}
}

func TestAblationScaledPrice(t *testing.T) {
	res, err := AblationScaledPrice(Config{Seed: 1, Trials: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || res.Series[0].Len() == 0 {
		t.Fatalf("malformed ablation result: %+v", res)
	}
	with, without := res.Series[0], res.Series[1]
	for i := range with.Y {
		if with.Y[i] > without.Y[i]+1e-6 {
			t.Fatalf("point %d: ψ-scaling made MSOA MORE expensive: %v vs %v",
				i, with.Y[i], without.Y[i])
		}
	}
}

func TestAblationPaymentsPremiumAtLeastOne(t *testing.T) {
	res, err := AblationPayments(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	premium := res.Series[2]
	for i, y := range premium.Y {
		if y < 1-1e-6 {
			t.Fatalf("point %d: truthfulness premium %v below 1 (critical pays at least the bid)", i, y)
		}
	}
}

func TestAblationGreedyMetricOrdering(t *testing.T) {
	res, err := AblationGreedyMetric(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	perCov, lowest, random := res.Series[0], res.Series[1], res.Series[2]
	for i := range perCov.Y {
		if perCov.Y[i] > lowest.Y[i]*1.25+1e-6 {
			t.Fatalf("point %d: per-coverage greedy (%v) clearly worse than lowest-price greedy (%v)",
				i, perCov.Y[i], lowest.Y[i])
		}
		if perCov.Y[i] > random.Y[i]*1.25+1e-6 {
			t.Fatalf("point %d: per-coverage greedy (%v) clearly worse than random (%v)",
				i, perCov.Y[i], random.Y[i])
		}
	}
}

func TestRandomCoversWhenPossible(t *testing.T) {
	rng := workload.NewRand(1)
	ins := workload.Instance(rng, workload.InstanceConfig{Bidders: 15})
	out, err := randomSelection(ins, rng)
	if err != nil {
		t.Fatalf("random selection failed on reserve-backed instance: %v", err)
	}
	if err := core.VerifyFeasible(ins, out); err != nil {
		t.Fatal(err)
	}
	for _, w := range out.Winners {
		if out.Payments[w] != ins.Bids[w].Price {
			t.Fatalf("random selection must pay first price")
		}
	}
}

func TestRandomAtLeastGreedyCostOnAverage(t *testing.T) {
	rng := workload.NewRand(2)
	var greedyTotal, randomTotal float64
	for trial := 0; trial < 20; trial++ {
		ins := workload.Instance(rng, workload.InstanceConfig{Bidders: 15})
		g, err := core.SSAM(ins, core.Options{SkipCertificate: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := randomSelection(ins, rng)
		if err != nil {
			t.Fatal(err)
		}
		greedyTotal += g.SocialCost
		randomTotal += r.SocialCost
	}
	if randomTotal < greedyTotal {
		t.Fatalf("random (%v) beat greedy (%v) on aggregate — implausible", randomTotal, greedyTotal)
	}
}

func TestAblationFixedPrice(t *testing.T) {
	res, err := AblationFixedPrice(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// A posted price at the 5th unit-cost percentile must undercover (only
	// ~5% of supply accepts); the 95th-percentile posting must cover (or
	// nearly cover) everything.
	var lowCov, highCov *metrics.Series
	for _, s := range res.Series {
		if strings.Contains(s.Name, "coverage posted=p05") {
			lowCov = s
		}
		if strings.Contains(s.Name, "coverage posted=p95") {
			highCov = s
		}
	}
	if lowCov == nil || highCov == nil {
		t.Fatal("missing coverage series")
	}
	for i := range lowCov.Y {
		if lowCov.Y[i] > highCov.Y[i]+1e-9 {
			t.Fatalf("point %d: p05 coverage %v exceeds p95 coverage %v", i, lowCov.Y[i], highCov.Y[i])
		}
		if lowCov.Y[i] > 0.99 {
			t.Fatalf("point %d: posting the 5th percentile should undercover, got %v", i, lowCov.Y[i])
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	cfg := quickCfg()
	r3a, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r4a, err := Fig4a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig3a": r3a.Render(),
		"fig4a": r4a.Render(),
	} {
		if !strings.Contains(out, "---") {
			t.Fatalf("%s render lacks a table: %q", name, out)
		}
	}
}

func TestWinningStats(t *testing.T) {
	res, err := WinningStats(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.WinPercent.Len() == 0 {
		t.Fatal("empty win-percent series")
	}
	for i, y := range res.WinPercent.Y {
		if y < 0 || y > 100 {
			t.Fatalf("point %d: win percent %v outside [0,100]", i, y)
		}
	}
	for i, y := range res.BidderWinPercent.Y {
		if y < res.WinPercent.Y[i]-1e-9 {
			t.Fatalf("point %d: bidder win %% (%v) below bid win %% (%v); with J=2 per bidder it must be at least as large", i, y, res.WinPercent.Y[i])
		}
	}
	if res.PriceHistogram.Total() == 0 {
		t.Fatal("no winning prices recorded")
	}
	if !strings.Contains(res.Render(), "price distribution") {
		t.Fatal("render missing histogram")
	}
}

func TestAblationCapacity(t *testing.T) {
	res, err := AblationCapacity(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	measured, bound := res.Series[0], res.Series[1]
	if measured.Len() == 0 {
		t.Fatal("empty measured series")
	}
	for i, y := range measured.Y {
		if y < 1-1e-6 {
			t.Fatalf("point %d: measured ratio %v below 1", i, y)
		}
	}
	// The measured ratio over-states the true competitive ratio (the
	// denominator is a LOWER bound on the offline optimum), so dominance
	// by the Theorem 7 bound cannot be asserted; assert the structural
	// claims instead: the bound exists, exceeds 1, and tightens (weakly)
	// as capacities relax.
	if bound.Len() < 2 {
		t.Fatalf("bound series too short: %d", bound.Len())
	}
	for i, y := range bound.Y {
		if y <= 1 {
			t.Fatalf("bound point %d: %v must exceed 1", i, y)
		}
	}
	if last, first := bound.Y[bound.Len()-1], bound.Y[0]; last > first*1.05 {
		t.Fatalf("bound should tighten as capacity relaxes: first %v, last %v", first, last)
	}
}

func TestTruthfulnessSweepSingleBidClean(t *testing.T) {
	res, err := TruthfulnessSweep(Config{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationsSingle != 0 {
		t.Fatalf("J=1 profitable deviations: %d (Theorem 4 requires 0)", res.ViolationsSingle)
	}
	if res.Deviations == 0 {
		t.Fatal("sweep probed nothing")
	}
	if !strings.Contains(res.Render(), "Theorem 4") {
		t.Fatal("render missing context")
	}
}

func TestFederationExperiment(t *testing.T) {
	res, err := Federation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered.Len() == 0 {
		t.Fatal("empty coverage series")
	}
	for i, y := range res.Covered.Y {
		if y < 0 || y > 1 {
			t.Fatalf("point %d: coverage %v outside [0,1]", i, y)
		}
		if y < res.CoveredLocal-1e-9 {
			t.Fatalf("point %d: federated coverage %v below local-only %v", i, y, res.CoveredLocal)
		}
	}
	if !strings.Contains(res.Render(), "borrowing") {
		t.Fatal("render missing context")
	}
}

func TestDemandAblationOrdering(t *testing.T) {
	res, err := DemandAblation(Config{Seed: 3, Trials: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	byName := map[string]DemandAblationRow{}
	for _, row := range res.Rows {
		byName[row.Scheme] = row
	}
	oracle := byName["oracle (backlog)"]
	if oracle.MisprocureCost != 0 || oracle.Spearman < 0.999 {
		t.Fatalf("oracle must be perfect: %+v", oracle)
	}
	ahp, uni := byName["AHP weights"], byName["uniform weights"]
	if ahp.MisprocureCost > uni.MisprocureCost*1.25 {
		t.Fatalf("AHP (%v) clearly worse than uniform (%v)", ahp.MisprocureCost, uni.MisprocureCost)
	}
	if !strings.Contains(res.Render(), "spearman") {
		t.Fatal("render missing correlation column")
	}
}

func TestSpearmanBasics(t *testing.T) {
	rho, err := metrics.Spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40})
	if err != nil || rho < 0.999 {
		t.Fatalf("perfect monotone: rho=%v err=%v", rho, err)
	}
	rho, err = metrics.Spearman([]float64{1, 2, 3, 4}, []float64{40, 30, 20, 10})
	if err != nil || rho > -0.999 {
		t.Fatalf("perfect inverse: rho=%v err=%v", rho, err)
	}
	if _, err := metrics.Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	rho, err = metrics.Spearman([]float64{5, 5, 5}, []float64{1, 2, 3})
	if err != nil || rho != 0 {
		t.Fatalf("constant sample should give rho 0: %v, %v", rho, err)
	}
}
