// Package core implements the paper's primary contribution: the single-stage
// reverse auction SSAM (Algorithm 1) and the multi-stage online auction MSOA
// (Algorithm 2) for incentivizing microservices to share resources in edge
// clouds, together with critical-value payments, primal–dual approximation
// certificates, and the MSOA variants evaluated in §V (MSOA-DA, MSOA-RC,
// MSOA-OA).
//
// Terminology used throughout the package:
//
//   - A "needy" microservice is one whose fair-share allocation does not
//     cover its residual demand X_k; it must be covered by winning bids.
//   - A "bidder" is a microservice willing to yield resources; it may submit
//     up to F alternative bids per round, each offering to cover a set of
//     needy microservices at a price.
//   - Winner selection is weighted set multicover: every needy microservice
//     k must be covered X_k times, at most one bid per bidder wins per
//     round, and the social cost (sum of winning bid prices) is minimized.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInfeasible reports that the submitted bids cannot cover the residual
// demand, e.g. when too few bidders participate in a round.
var ErrInfeasible = errors.New("core: bids cannot cover residual demand")

// Bid is one alternative bid (Ŝ, J_ij) submitted by a bidder microservice.
type Bid struct {
	// Bidder identifies the microservice submitting the bid (index i).
	Bidder int
	// Alt is the alternative-bid index j within the bidder (0-based,
	// strictly less than the per-round bid limit F).
	Alt int
	// Price is the bidding price J_ij the bidder asks for yielding the
	// resources. Under truthful bidding Price equals TrueCost.
	Price float64
	// TrueCost is the bidder's actual cost G_ij of yielding the resources.
	// The mechanism never reads it; it exists so tests and experiments can
	// quantify truthfulness and utility.
	TrueCost float64
	// Covers lists the needy microservices S_ij this bid contributes
	// coverage to, as indices into Instance.Demand. Entries must be unique.
	Covers []int
	// Units is the amount of coverage a_ij the bid contributes to each
	// needy microservice in Covers when selected. Must be >= 1.
	Units int
}

// CoverSize returns |S_ij|, the number of needy microservices the bid spans.
func (b Bid) CoverSize() int { return len(b.Covers) }

// Clone returns a deep copy of the bid.
func (b Bid) Clone() Bid {
	c := b
	c.Covers = append([]int(nil), b.Covers...)
	return c
}

// Instance is one single-stage winner selection problem: the residual
// demands of the needy microservices and the bids submitted this round.
type Instance struct {
	// Demand holds X_k for each needy microservice k: how many units of
	// coverage k requires. len(Demand) is the number of needy microservices.
	Demand []int
	// Bids are the submitted bids. Bidder identifiers need not be dense,
	// but every bid's Covers entries must index into Demand.
	Bids []Bid
}

// NumNeedy returns the number of needy microservices.
func (ins *Instance) NumNeedy() int { return len(ins.Demand) }

// TotalDemand returns the sum of coverage requirements across needy
// microservices.
func (ins *Instance) TotalDemand() int {
	total := 0
	for _, d := range ins.Demand {
		total += d
	}
	return total
}

// UsefulUnits returns the coverage bid b can supply toward the full
// demand, Σ_{k∈Covers} min(Units, X_k). Its covers must index into
// ins.Demand.
func (ins *Instance) UsefulUnits(b *Bid) int {
	units := 0
	for _, k := range b.Covers {
		units += min(b.Units, ins.Demand[k])
	}
	return units
}

// MaxPrice returns the maximum bid price, or 0 with no bids. It is used as
// the default reserve for critical payments when a winner has no runner-up.
func (ins *Instance) MaxPrice() float64 {
	maxP := 0.0
	for _, b := range ins.Bids {
		if b.Price > maxP {
			maxP = b.Price
		}
	}
	return maxP
}

// Clone returns a deep copy of the instance.
func (ins *Instance) Clone() *Instance {
	out := &Instance{
		Demand: append([]int(nil), ins.Demand...),
		Bids:   make([]Bid, len(ins.Bids)),
	}
	for i, b := range ins.Bids {
		out.Bids[i] = b.Clone()
	}
	return out
}

// Validate checks structural well-formedness: positive demands, every
// bid passing CheckBid, and per-bidder unique alternative indices. It
// returns a descriptive error on the first violation found. An instance
// in canonical (Bidder, Alt) order — what the platform's ingest buffer
// assembles — is validated without allocating.
func (ins *Instance) Validate() error {
	for k, d := range ins.Demand {
		if d < 0 {
			return fmt.Errorf("core: demand of needy microservice %d is negative (%d)", k, d)
		}
	}
	type altKey struct{ bidder, alt int }
	var seenAlt map[altKey]struct{} // built only once the bids leave canonical order
	for idx := range ins.Bids {
		b := &ins.Bids[idx]
		if err := CheckBid(b.Price, b.Units, b.Covers, len(ins.Demand)); err != nil {
			return fmt.Errorf("core: bid %d %w", idx, err)
		}
		if seenAlt == nil {
			if idx == 0 || ins.Bids[idx-1].Bidder < b.Bidder ||
				(ins.Bids[idx-1].Bidder == b.Bidder && ins.Bids[idx-1].Alt < b.Alt) {
				continue // strictly increasing (Bidder, Alt): cannot repeat a pair
			}
			seenAlt = make(map[altKey]struct{}, len(ins.Bids))
			for _, p := range ins.Bids[:idx] {
				seenAlt[altKey{p.Bidder, p.Alt}] = struct{}{}
			}
		}
		key := altKey{b.Bidder, b.Alt}
		if _, dup := seenAlt[key]; dup {
			return fmt.Errorf("core: bidder %d submits duplicate alternative index %d", b.Bidder, b.Alt)
		}
		seenAlt[key] = struct{}{}
	}
	return nil
}

// CheckBid applies the per-bid rules of Validate to one bid of a round
// with needy needy microservices: a finite, non-negative price, at least
// one unit, and a non-empty set of distinct, in-range covers. It
// allocates nothing unless it fails, so the platform runs it on every
// untrusted bid at ingest. The error reads as a predicate on the bid
// ("has invalid price NaN"); callers prefix which bid it is.
func CheckBid(price float64, units int, covers []int, needy int) error {
	if price < 0 || math.IsNaN(price) || math.IsInf(price, 0) {
		return fmt.Errorf("has invalid price %v", price)
	}
	if units < 1 {
		return fmt.Errorf("has non-positive units %d", units)
	}
	if len(covers) == 0 {
		return errors.New("covers no needy microservice")
	}
	ascending := true
	for i, k := range covers {
		if k < 0 || k >= needy {
			return fmt.Errorf("covers out-of-range needy microservice %d", k)
		}
		if ascending = ascending && (i == 0 || covers[i-1] < k); ascending {
			continue // strictly ascending so far: k is new
		}
		// Scan the prefix, which holds distinct in-range indices and so is
		// at most needy long.
		for _, p := range covers[:i] {
			if p == k {
				return fmt.Errorf("covers needy microservice %d twice", k)
			}
		}
	}
	return nil
}

// Coverable reports whether the instance is feasible at all: whether
// selecting every bid (at most one per bidder, taking each bidder's best
// coverage) can satisfy all demands. It is a fast necessary-and-sufficient
// check given the one-bid-per-bidder constraint is relaxed to "any single
// bid per bidder" (selecting all bids of a bidder never helps more than the
// union, but our model counts coverage per selected bid, so we check the
// optimistic bound of one full-coverage bid per bidder).
func (ins *Instance) Coverable() bool {
	// Optimistic per-needy coverage: for each bidder take, per needy k, the
	// maximum units any of its bids contributes to k. This upper-bounds what
	// one bid per bidder can do, and the greedy/exact solvers confirm
	// exactly; we use it only to short-circuit clearly infeasible rounds.
	perBidder := make(map[int][]int) // bidder -> per-needy max units
	for _, b := range ins.Bids {
		cov := perBidder[b.Bidder]
		if cov == nil {
			cov = make([]int, len(ins.Demand))
			perBidder[b.Bidder] = cov
		}
		for _, k := range b.Covers {
			if b.Units > cov[k] {
				cov[k] = b.Units
			}
		}
	}
	got := make([]int, len(ins.Demand))
	for _, cov := range perBidder {
		for k, u := range cov {
			got[k] += u
		}
	}
	for k, d := range ins.Demand {
		if got[k] < d {
			return false
		}
	}
	return true
}

// Outcome is the result of running a winner selection mechanism on an
// Instance.
type Outcome struct {
	// Winners holds indices into Instance.Bids of the selected bids, in the
	// order they were selected.
	Winners []int
	// Payments maps a winning bid index to the remuneration p_i paid to its
	// bidder. Losing bids receive no payment and are absent.
	Payments map[int]float64
	// SocialCost is the sum of winning bid prices (the paper's objective,
	// Eq. 12). For MSOA rounds this is computed with the RAW prices J_ij,
	// not the scaled prices, matching Lemma 4's Δμ accounting.
	SocialCost float64
	// ScaledCost is the sum of winning scaled prices ∇_ij; for SSAM run
	// standalone it equals SocialCost.
	ScaledCost float64
	// Dual carries the primal–dual certificate produced by SSAM.
	Dual *DualCertificate
}

// Equal reports whether o and other are EXACTLY the same outcome: identical
// winner sequences, bit-identical costs and payments, and (when present)
// bit-identical dual certificates. No epsilon is applied anywhere — the
// optimized kernel is held to bit-identical float64 operation sequences
// against the reference implementation, and the differential tests compare
// through this method.
func (o *Outcome) Equal(other *Outcome) bool {
	if o == nil || other == nil {
		return o == other
	}
	if len(o.Winners) != len(other.Winners) {
		return false
	}
	for i := range o.Winners {
		if o.Winners[i] != other.Winners[i] {
			return false
		}
	}
	if o.SocialCost != other.SocialCost || o.ScaledCost != other.ScaledCost {
		return false
	}
	if len(o.Payments) != len(other.Payments) {
		return false
	}
	for w, p := range o.Payments {
		q, ok := other.Payments[w]
		if !ok || p != q {
			return false
		}
	}
	return o.Dual.equal(other.Dual)
}

// equal is the exact comparison over dual certificates backing Outcome.Equal.
func (c *DualCertificate) equal(other *DualCertificate) bool {
	if c == nil || other == nil {
		return c == other
	}
	if c.W != other.W || c.Xi != other.Xi ||
		c.Primal != other.Primal || c.DualObjective != other.DualObjective {
		return false
	}
	if len(c.UnitPrices) != len(other.UnitPrices) || len(c.UnitTimes) != len(other.UnitTimes) ||
		len(c.Y) != len(other.Y) || len(c.Z) != len(other.Z) {
		return false
	}
	for k := range c.UnitPrices {
		if len(c.UnitPrices[k]) != len(other.UnitPrices[k]) {
			return false
		}
		for u := range c.UnitPrices[k] {
			if c.UnitPrices[k][u] != other.UnitPrices[k][u] {
				return false
			}
		}
	}
	for k := range c.UnitTimes {
		if len(c.UnitTimes[k]) != len(other.UnitTimes[k]) {
			return false
		}
		for u := range c.UnitTimes[k] {
			if c.UnitTimes[k][u] != other.UnitTimes[k][u] {
				return false
			}
		}
	}
	for k := range c.Y {
		if c.Y[k] != other.Y[k] {
			return false
		}
	}
	for b, z := range c.Z {
		zo, ok := other.Z[b]
		if !ok || z != zo {
			return false
		}
	}
	return true
}

// TotalPayment sums the payments to all winners. The sum runs in
// ascending bid-index order: float addition is not associative, so
// summing in Go's randomized map order would make the total differ in
// the last ULP between otherwise identical runs — enough to flip the
// hashed platform state that the WAL and the chaos harnesses compare
// byte-for-byte.
func (o *Outcome) TotalPayment() float64 {
	idx := make([]int, 0, len(o.Payments))
	for w := range o.Payments {
		idx = append(idx, w)
	}
	sort.Ints(idx)
	var total float64
	for _, w := range idx {
		total += o.Payments[w]
	}
	return total
}

// CoverageFraction returns the share of ins's total demand that the
// winners procure, 1 for a fully covered round (and for rounds with zero
// demand).
func (o *Outcome) CoverageFraction(ins *Instance) float64 {
	total := ins.TotalDemand()
	if total == 0 {
		return 1
	}
	theta := make([]int, len(ins.Demand))
	for _, w := range o.Winners {
		b := &ins.Bids[w]
		for _, k := range b.Covers {
			theta[k] += b.Units
		}
	}
	covered := 0
	for k, d := range ins.Demand {
		covered += min(theta[k], d)
	}
	return float64(covered) / float64(total)
}

// Won reports whether bid index idx is a winner.
func (o *Outcome) Won(idx int) bool {
	for _, w := range o.Winners {
		if w == idx {
			return true
		}
	}
	return false
}

// Utility returns the utility (Eq. 3) of the bid at index idx in ins under
// this outcome: payment minus true cost if it won, zero otherwise.
func (o *Outcome) Utility(ins *Instance, idx int) float64 {
	if !o.Won(idx) {
		return 0
	}
	return o.Payments[idx] - ins.Bids[idx].TrueCost
}
