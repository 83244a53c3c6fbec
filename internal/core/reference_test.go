package core

// This file preserves the pre-optimization SSAM implementation verbatim as
// the differential oracle: a straightforward []bool candidate mask, per-bid
// Covers slices, and from-scratch counterfactual payment replays. The
// optimized kernel (kernel.go) must produce BIT-IDENTICAL outcomes — winner
// sequence, costs, every payment, the dual certificate — and the property
// and fuzz tests in differential_test.go hold it to that.
//
// Nothing here ships: the file is test-only by suffix, and the production
// entry points (SSAM, ssamScaled, BudgetedSSAM) never call into it.

import (
	"fmt"
	"math"
)

// refCoverageState tracks θ_k, the units of coverage accumulated per needy
// microservice, plus the remaining total deficit.
type refCoverageState struct {
	theta   []int
	demand  []int
	deficit int
}

func newRefCoverageState(demand []int) *refCoverageState {
	cs := &refCoverageState{}
	cs.reset(demand)
	return cs
}

func (cs *refCoverageState) reset(demand []int) {
	if cap(cs.theta) < len(demand) {
		cs.theta = make([]int, len(demand))
	}
	cs.theta = cs.theta[:len(demand)]
	total := 0
	for i, d := range demand {
		cs.theta[i] = 0
		total += d
	}
	cs.demand = demand
	cs.deficit = total
}

// marginal returns U_ij(E): the increase in Σ_k min(θ_k, X_k) from
// selecting bid b at the current state (Eq. 19).
func (cs *refCoverageState) marginal(b *Bid) int {
	gain := 0
	for _, k := range b.Covers {
		before := cs.theta[k]
		if before >= cs.demand[k] {
			continue
		}
		after := before + b.Units
		if after > cs.demand[k] {
			after = cs.demand[k]
		}
		gain += after - before
	}
	return gain
}

// apply commits bid b to the state and returns, per covered needy k, the
// number of new units supplied (aligned with b.Covers).
func (cs *refCoverageState) apply(b *Bid) []int {
	gains := make([]int, len(b.Covers))
	for i, k := range b.Covers {
		before := cs.theta[k]
		after := before + b.Units
		capped := after
		if capped > cs.demand[k] {
			capped = cs.demand[k]
		}
		if capped > before {
			gains[i] = capped - before
			cs.deficit -= gains[i]
		}
		cs.theta[k] = after
	}
	return gains
}

// applyOnly commits bid b to the state without materializing the per-needy
// gains slice.
func (cs *refCoverageState) applyOnly(b *Bid) {
	for _, k := range b.Covers {
		before := cs.theta[k]
		after := before + b.Units
		capped := after
		if capped > cs.demand[k] {
			capped = cs.demand[k]
		}
		if capped > before {
			cs.deficit -= capped - before
		}
		cs.theta[k] = after
	}
}

func (cs *refCoverageState) satisfied() bool { return cs.deficit <= 0 }

// refSelectBest returns the active bid minimizing the greedy metric at the
// current coverage state. The scan visits bids in ascending index order and
// only replaces best on a STRICT improvement, so the ascending scan itself
// IS the lowest-index tie-break: an exact-score tie can never displace an
// earlier winner (i > best whenever best is set), and no separate
// `score == bestScore && i < best` branch is needed — that comparison is
// unsatisfiable here. (The optimized kernel pops a heap over a
// swap-delete permuted candidate list and therefore DOES need the explicit
// tie-break; see betterScore.)
// It returns best = -1 when no active bid has positive marginal coverage.
func refSelectBest(ins *Instance, scaled []float64, active []bool, cs *refCoverageState, metric GreedyMetric) (best int, bestScore float64, bestMarginal int) {
	best, bestScore = -1, math.Inf(1)
	for i := range ins.Bids {
		if !active[i] {
			continue
		}
		m := cs.marginal(&ins.Bids[i])
		if m <= 0 {
			continue
		}
		score := scaled[i] / float64(m)
		if metric == LowestPrice {
			score = scaled[i]
		}
		if score < bestScore {
			best, bestScore, bestMarginal = i, score, m
		}
	}
	return best, bestScore, bestMarginal
}

// refPaymentScratch is the per-replay state of one counterfactual payment
// run in the reference implementation.
type refPaymentScratch struct {
	cs     refCoverageState
	active []bool
}

// refComputePayments fills payments[w] for every winning bid index using
// from-scratch counterfactual replays (the seed behavior).
func refComputePayments(ins *Instance, scaled []float64, winners []int, opts Options, payments map[int]float64) {
	if len(winners) == 0 {
		return
	}
	if opts.payment() == FirstPrice {
		for _, w := range winners {
			payments[w] = scaled[w]
		}
		return
	}
	scratch := &refPaymentScratch{}
	for _, w := range winners {
		payments[w] = refPaymentFor(ins, scaled, w, opts, scratch)
	}
}

// refPaymentFor computes the remuneration of winning bid w under the
// configured payment rule: the Myerson threshold via a full counterfactual
// greedy replay WITHOUT any bid from w's bidder, from scratch.
func refPaymentFor(ins *Instance, scaled []float64, w int, opts Options, scratch *refPaymentScratch) float64 {
	if opts.payment() == FirstPrice {
		return scaled[w]
	}
	winner := &ins.Bids[w]
	if cap(scratch.active) < len(ins.Bids) {
		scratch.active = make([]bool, len(ins.Bids))
	}
	active := scratch.active[:len(ins.Bids)]
	for i := range ins.Bids {
		active[i] = ins.Bids[i].Bidder != winner.Bidder
	}
	cs := &scratch.cs
	cs.reset(ins.Demand)
	metric := opts.metric()

	best := 0.0
	for !cs.satisfied() {
		if m := cs.marginal(winner); m > 0 {
			idx, score, _ := refSelectBest(ins, scaled, active, cs, metric)
			if idx < 0 {
				// Pivotal: without this bidder the remaining demand is
				// uncoverable, so any report up to the reserve wins.
				return reservePayment(ins, scaled, w, opts)
			}
			if v := float64(m) * score; v > best {
				best = v
			}
			for i := range ins.Bids {
				if ins.Bids[i].Bidder == ins.Bids[idx].Bidder {
					active[i] = false
				}
			}
			cs.applyOnly(&ins.Bids[idx])
			continue
		}
		break
	}
	if best < scaled[w] {
		best = scaled[w]
	}
	return best
}

// referenceSSAMScaled is the seed ssamScaled: []bool candidate mask, per-bid
// Covers slices, from-scratch payment replays, serial payment phase.
func referenceSSAMScaled(ins *Instance, scaled []float64, opts Options) (*Outcome, error) {
	if len(scaled) != len(ins.Bids) {
		return nil, fmt.Errorf("core: scaled price vector has %d entries for %d bids", len(scaled), len(ins.Bids))
	}
	cs := newRefCoverageState(ins.Demand)
	out := &Outcome{Payments: make(map[int]float64)}
	var cert *certBuilder
	if !opts.SkipCertificate {
		cert = newCertBuilder(ins, scaled)
	}

	active := make([]bool, len(ins.Bids))
	for i := range active {
		active[i] = true
	}
	metric := opts.metric()

	for !cs.satisfied() {
		best, _, bestMarginal := refSelectBest(ins, scaled, active, cs, metric)
		if best < 0 {
			return nil, fmt.Errorf("%w: uncovered demand %d remains", ErrInfeasible, cs.deficit)
		}

		winner := &ins.Bids[best]
		for i := range ins.Bids {
			if ins.Bids[i].Bidder == winner.Bidder {
				active[i] = false
			}
		}

		gains := cs.apply(winner)
		if cert != nil {
			cert.record(best, winner, gains, scaled[best], bestMarginal)
		}

		out.Winners = append(out.Winners, best)
		out.SocialCost += winner.Price
		out.ScaledCost += scaled[best]
	}

	refComputePayments(ins, scaled, out.Winners, opts, out.Payments)

	if cert != nil {
		out.Dual = cert.finish(out, bidderPriceSpread(ins, scaled))
	}
	return out, nil
}

// referenceSSAM is the seed SSAM entry point over referenceSSAMScaled.
func referenceSSAM(ins *Instance, opts Options) (*Outcome, error) {
	scaled := make([]float64, len(ins.Bids))
	for i, b := range ins.Bids {
		scaled[i] = b.Price
	}
	return referenceSSAMScaled(ins, scaled, opts)
}

// referenceBudgetedSSAM is the seed BudgetedSSAM: greedy selection with
// per-winner from-scratch critical-value replays and a hard budget gate.
func referenceBudgetedSSAM(ins *Instance, budget float64, opts Options) (*BudgetedOutcome, error) {
	if math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("core: invalid budget %v", budget)
	}
	scaled := make([]float64, len(ins.Bids))
	for i, b := range ins.Bids {
		scaled[i] = b.Price
	}

	cs := newRefCoverageState(ins.Demand)
	out := &BudgetedOutcome{
		Outcome: Outcome{Payments: make(map[int]float64)},
		Budget:  budget,
	}
	active := make([]bool, len(ins.Bids))
	for i := range active {
		active[i] = true
	}
	metric := opts.metric()
	scratch := &refPaymentScratch{}

	for !cs.satisfied() {
		best, _, _ := refSelectBest(ins, scaled, active, cs, metric)
		if best < 0 {
			break // market exhausted; remaining demand stays uncovered
		}
		winner := &ins.Bids[best]

		pay := refPaymentFor(ins, scaled, best, opts, scratch)
		if out.BudgetSpent+pay > budget {
			out.RejectedByBudget = append(out.RejectedByBudget, best)
			for i := range ins.Bids {
				if ins.Bids[i].Bidder == winner.Bidder {
					active[i] = false
				}
			}
			continue
		}

		for i := range ins.Bids {
			if ins.Bids[i].Bidder == winner.Bidder {
				active[i] = false
			}
		}
		cs.apply(winner)
		out.Winners = append(out.Winners, best)
		out.Payments[best] = pay
		out.BudgetSpent += pay
		out.SocialCost += winner.Price
		out.ScaledCost += winner.Price
	}

	out.UncoveredDemand = cs.deficit
	return out, nil
}

// bidderPriceSpread returns Ξ: the maximum over bidders of the ratio of its
// most to least expensive alternative bid (scaled prices). With one bid per
// bidder Ξ = 1 and the certificate collapses to the plain H_n bound, as the
// paper notes after Theorem 3. This per-bidder map formulation is the
// oracle for kernel.priceSpread.
func bidderPriceSpread(ins *Instance, scaled []float64) float64 {
	type span struct{ lo, hi float64 }
	spans := make(map[int]*span)
	for i := range ins.Bids {
		p := scaled[i]
		s := spans[ins.Bids[i].Bidder]
		if s == nil {
			spans[ins.Bids[i].Bidder] = &span{lo: p, hi: p}
			continue
		}
		if p < s.lo {
			s.lo = p
		}
		if p > s.hi {
			s.hi = p
		}
	}
	xi := 1.0
	for _, s := range spans {
		if s.lo > 0 && s.hi/s.lo > xi {
			xi = s.hi / s.lo
		}
	}
	return xi
}
