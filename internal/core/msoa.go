package core

import (
	"fmt"
	"math"
	"time"

	"edgeauction/internal/obs"
)

// Round is the input to one stage of the online auction: the needy demands
// and bids that materialize at round t. Bids carry RAW prices J_ij; MSOA
// derives the scaled prices ∇_ij internally.
type Round struct {
	// T is the 1-based round index.
	T int
	// Instance holds this round's demands and bids.
	Instance *Instance
}

// BidderWindow bounds a bidder's participation to rounds [Arrive, Depart]
// (the paper's t_i⁻ and t_i⁺). Bids submitted outside the window are
// excluded from the candidate set.
type BidderWindow struct {
	Arrive int
	Depart int
}

// Contains reports whether round t falls in the window. A zero-value window
// (Arrive=Depart=0) means "always present".
func (w BidderWindow) Contains(t int) bool {
	if w.Arrive == 0 && w.Depart == 0 {
		return true
	}
	return t >= w.Arrive && t <= w.Depart
}

// MSOAConfig configures the multi-stage online auction (Algorithm 2).
type MSOAConfig struct {
	// Capacity maps bidder id -> Θ_i, the lifetime number of coverage
	// slots (Σ over winning bids of |S_ij|) the bidder is willing to
	// share. Bidders absent from the map are treated as having
	// DefaultCapacity. A non-positive map entry means that bidder is
	// unlimited.
	Capacity map[int]int
	// DefaultCapacity applies to bidders without an explicit Capacity
	// entry. When DefaultCapacitySet is false, zero keeps the historical
	// meaning "unlimited"; when DefaultCapacitySet is true the value is
	// taken verbatim, so an explicit zero means bidders without an entry
	// have NO sharing capacity and are excluded from every round.
	DefaultCapacity int
	// DefaultCapacitySet marks DefaultCapacity as explicitly configured.
	// It exists because DefaultCapacity == 0 alone cannot distinguish
	// "unset, bidders are unlimited" from "bidders without an entry may
	// not share at all".
	DefaultCapacitySet bool
	// CapacityExemptFrom, when positive, exempts every bidder with id >=
	// this value from capacity constraints. Platforms reserve a high id
	// space for their own fallback supply (e.g. the reserve ladder of
	// internal/sim and internal/workload), which is never
	// capacity-limited.
	CapacityExemptFrom int
	// Windows maps bidder id -> participation window. Absent bidders are
	// always present.
	Windows map[int]BidderWindow
	// Alpha is the single-stage approximation ratio α used in the ψ update
	// (Lemma 4 uses the SSAM ratio). When zero, each round's certified
	// ratio W·Ξ is used; if certificates are skipped, 1 is used.
	Alpha float64
	// DisableScaledPrice turns off the ψ augmentation (∇ = J always).
	// Exists for the ablation benchmarks; the competitive-ratio guarantee
	// does not hold with it set.
	DisableScaledPrice bool
	// Mechanism selects the single-stage mechanism each round clears
	// through. The zero value (and NameSSAM) runs the paper's SSAM on the
	// historical call path, byte-identical to configs predating this
	// field. Non-scaled mechanisms clear on raw prices and never update ψ
	// (χ capacity accounting still applies to their winners).
	Mechanism MechanismSpec
	// Options configures each embedded single-stage auction.
	Options Options
}

// capacityOf resolves a bidder's lifetime capacity Θ_i. limited reports
// whether the bidder is capacity-constrained at all; when it is true, theta
// is the (non-negative) constraint — including an explicit zero, which
// excludes the bidder from every round.
func (c MSOAConfig) capacityOf(bidder int) (theta int, limited bool) {
	if c.CapacityExemptFrom > 0 && bidder >= c.CapacityExemptFrom {
		return 0, false // platform fallback supply: unlimited
	}
	if c.Capacity != nil {
		if theta, ok := c.Capacity[bidder]; ok {
			if theta <= 0 {
				return 0, false // explicit map zero keeps meaning unlimited
			}
			return theta, true
		}
	}
	if c.DefaultCapacity > 0 {
		return c.DefaultCapacity, true
	}
	if c.DefaultCapacitySet {
		return 0, true // explicit zero default: no capacity at all
	}
	return 0, false
}

// RoundResult couples a round's outcome with the scaled prices it was
// computed under and per-winner accounting.
type RoundResult struct {
	T       int
	Outcome *Outcome
	// Scaled holds the scaled prices ∇_ij used this round, aligned with
	// the round's Instance.Bids. Excluded bids keep their raw price.
	Scaled []float64
	// Excluded lists bid indices dropped from the candidate set by the
	// capacity constraint or the participation window (Algorithm 2,
	// lines 5-6).
	Excluded []int
	// Err is non-nil when the round was infeasible; the auction continues
	// with subsequent rounds (demand goes unmet this round, as it would on
	// a real platform).
	Err error
}

// MSOA runs the multi-stage online auction over a sequence of rounds and
// retains the per-bidder dual state ψ_i and used capacity χ_i between
// rounds. Construct with NewMSOA, feed rounds in order with RunRound, or
// process a whole trace with Run.
type MSOA struct {
	cfg MSOAConfig
	// mech is the resolved non-default mechanism, nil when the config
	// selects SSAM (the nil fast path is the pre-Mechanism call chain,
	// kept byte-identical for the soak and bench gates).
	mech Mechanism
	// mechErr records a spec that failed to resolve; every round then
	// fails with it instead of silently falling back to SSAM.
	mechErr error
	psi     map[int]float64 // ψ_i
	chi     map[int]int     // χ_i: coverage slots consumed so far
	// sum is the running aggregate of every processed round, folded in
	// round order by RunRound, so a round costs the same however long the
	// run has been. RestoreMSOA seeds it with the snapshot's summary, so
	// a recovered mechanism reports the whole run, not just the rounds
	// since restart.
	sum OnlineSummary
}

// NewMSOA returns an online auction with zeroed dual state. A
// non-default cfg.Mechanism is resolved here, once, so Stateful
// mechanisms (futures books) live exactly as long as the MSOA's ψ/χ
// state; an unresolvable spec is reported by every RunRound rather than
// falling back to SSAM.
func NewMSOA(cfg MSOAConfig) *MSOA {
	m := &MSOA{
		cfg: cfg,
		psi: make(map[int]float64),
		chi: make(map[int]int),
	}
	if !cfg.Mechanism.IsSSAM() {
		m.mech, m.mechErr = NewMechanism(cfg.Mechanism)
	}
	return m
}

// Mechanism returns the resolved non-default mechanism, or nil when the
// online auction runs SSAM. The chaos auditor uses it to reach
// per-mechanism state (e.g. the double auction's settlement reports).
func (m *MSOA) Mechanism() Mechanism { return m.mech }

// Psi returns the current dual variable ψ_i for a bidder (0 if never won).
func (m *MSOA) Psi(bidder int) float64 { return m.psi[bidder] }

// UsedCapacity returns χ_i, the coverage slots bidder has supplied so far.
func (m *MSOA) UsedCapacity(bidder int) int { return m.chi[bidder] }

// RunRound executes one stage: derive scaled prices, filter the candidate
// set by windows and remaining capacity, run SSAM on the scaled prices, pay
// winners, and update ψ and χ for the winning bidders.
func (m *MSOA) RunRound(r Round) *RoundResult {
	ins := r.Instance
	res := &RoundResult{T: r.T, Scaled: make([]float64, len(ins.Bids))}
	if m.mechErr != nil {
		res.Err = fmt.Errorf("core: round %d: %w", r.T, m.mechErr)
		m.sum.add(res)
		return res
	}
	tr := m.cfg.Options.Tracer
	var started time.Time
	if tr != nil {
		started = time.Now()
	}

	// Build the candidate set and scaled prices (Algorithm 2, lines 4-8).
	filtered := &Instance{
		Demand: ins.Demand,
		Bids:   make([]Bid, 0, len(ins.Bids)),
	}
	mapping := make([]int, 0, len(ins.Bids)) // filtered idx -> original idx
	for i := range ins.Bids {
		b := &ins.Bids[i]
		res.Scaled[i] = b.Price
		if w, ok := m.cfg.Windows[b.Bidder]; ok && !w.Contains(r.T) {
			res.Excluded = append(res.Excluded, i)
			continue
		}
		theta, limited := m.cfg.capacityOf(b.Bidder)
		if limited && m.chi[b.Bidder]+len(b.Covers) > theta {
			res.Excluded = append(res.Excluded, i)
			continue
		}
		if !m.cfg.DisableScaledPrice {
			res.Scaled[i] = b.Price + float64(len(b.Covers))*m.psi[b.Bidder]
		}
		filtered.Bids = append(filtered.Bids, *b)
		mapping = append(mapping, i)
	}

	scaledFiltered := make([]float64, len(filtered.Bids))
	for fi, oi := range mapping {
		scaledFiltered[fi] = res.Scaled[oi]
	}
	if tr != nil {
		tr.Emit(obs.RoundOpen{
			Scope: obs.ScopeMSOA, T: r.T,
			Needy: ins.NumNeedy(), TotalDemand: ins.TotalDemand(),
			Bids: len(filtered.Bids), Excluded: len(res.Excluded),
		})
	}

	// Dispatch the single-stage clear. The nil-mechanism branch is the
	// historical SSAM call and must stay byte-identical — the soak gates
	// compare its WAL bytes and state hashes across binaries.
	var out *Outcome
	var err error
	sm, scaledOK := m.mech.(ScaledMechanism)
	switch {
	case m.mech == nil:
		out, err = ssamScaled(filtered, scaledFiltered, m.cfg.Options)
	case scaledOK:
		out, err = sm.ClearScaled(filtered, scaledFiltered, m.cfg.Options)
	default:
		out, err = m.mech.Clear(filtered, m.cfg.Options)
	}
	if err != nil {
		res.Err = fmt.Errorf("core: round %d: %w", r.T, err)
		m.sum.add(res)
		if tr != nil {
			tr.Emit(obs.RoundClose{
				Scope: obs.ScopeMSOA, T: r.T, Bids: len(filtered.Bids),
				Infeasible:     true,
				DurationMicros: time.Since(started).Microseconds(),
			})
		}
		return res
	}

	// Re-index the outcome to the original bid indices.
	remapped := &Outcome{
		Winners:    make([]int, 0, len(out.Winners)),
		Payments:   make(map[int]float64, len(out.Payments)),
		SocialCost: out.SocialCost,
		ScaledCost: out.ScaledCost,
		Dual:       out.Dual,
	}
	for _, w := range out.Winners {
		orig := mapping[w]
		remapped.Winners = append(remapped.Winners, orig)
		remapped.Payments[orig] = out.Payments[w]
	}
	res.Outcome = remapped

	alpha := m.cfg.Alpha
	if alpha == 0 {
		if out.Dual != nil {
			alpha = out.Dual.Ratio()
		} else {
			alpha = 1
		}
	}

	// Update ψ and χ for winners (Algorithm 2, lines 10-12):
	//   ψ_i^t = ψ_i^{t-1}(1 + |S_ij|/(α·Θ_i)) + J_ij·|S_ij|/(α·Θ_i²)
	// The ψ update belongs to the SSAM family's Lemma-4 argument, so it
	// only runs for scaled mechanisms; χ capacity accounting applies to
	// every mechanism's winners.
	updatePsi := m.mech == nil || scaledOK
	for _, orig := range remapped.Winners {
		b := &ins.Bids[orig]
		theta, limited := m.cfg.capacityOf(b.Bidder)
		if updatePsi && limited && theta > 0 {
			s := float64(len(b.Covers))
			th := float64(theta)
			m.psi[b.Bidder] = m.psi[b.Bidder]*(1+s/(alpha*th)) + b.Price*s/(alpha*th*th)
			if tr != nil {
				tr.Emit(obs.PsiUpdate{
					T: r.T, Bidder: b.Bidder,
					Psi: m.psi[b.Bidder], Chi: m.chi[b.Bidder] + len(b.Covers),
				})
			}
		}
		m.chi[b.Bidder] += len(b.Covers)
	}

	m.sum.add(res)
	if tr != nil {
		tr.Emit(obs.RoundClose{
			Scope: obs.ScopeMSOA, T: r.T, Bids: len(filtered.Bids),
			Winners:    len(remapped.Winners),
			SocialCost: remapped.SocialCost, TotalPayment: remapped.TotalPayment(),
			DurationMicros: time.Since(started).Microseconds(),
		})
	}
	return res
}

// Run processes all rounds in order and returns the aggregate summary.
func (m *MSOA) Run(rounds []Round) *OnlineSummary {
	for _, r := range rounds {
		m.RunRound(r)
	}
	return m.Summary()
}

// OnlineSummary aggregates an online run.
type OnlineSummary struct {
	// Rounds is the number of processed rounds.
	Rounds int
	// SocialCost is Σ_t Σ winning J_ij: the paper's long-run objective.
	SocialCost float64
	// ScaledCost is the same sum under scaled prices.
	ScaledCost float64
	// TotalPayment is the platform's total remuneration outlay.
	TotalPayment float64
	// InfeasibleRounds counts rounds whose demand could not be covered.
	InfeasibleRounds int
	// WinningBids counts selected bids across all rounds.
	WinningBids int
	// MaxCertRatio is the largest per-round certified ratio W·Ξ (α).
	MaxCertRatio float64
}

// Summary aggregates the rounds processed so far, including any rounds
// folded in from a restored snapshot.
func (m *MSOA) Summary() *OnlineSummary {
	s := m.sum
	return &s
}

// add folds one round into the summary. Rounds must be added in order:
// the float sums are then the same left-to-right additions a re-sum over
// the whole history would perform, bit for bit.
func (s *OnlineSummary) add(r *RoundResult) {
	s.Rounds++
	if r.Err != nil {
		s.InfeasibleRounds++
		return
	}
	s.SocialCost += r.Outcome.SocialCost
	s.ScaledCost += r.Outcome.ScaledCost
	s.TotalPayment += r.Outcome.TotalPayment()
	s.WinningBids += len(r.Outcome.Winners)
	if r.Outcome.Dual != nil && r.Outcome.Dual.Ratio() > s.MaxCertRatio {
		s.MaxCertRatio = r.Outcome.Dual.Ratio()
	}
}

// CompetitiveBound returns the certified competitive ratio αβ/(β−1) of
// Theorem 7 for the given configuration and rounds, where
// β = min_{i,j,t} Θ_i/|S_ij^t| over capacity-constrained bidders. It
// returns +Inf when β ≤ 1 (a bid as large as its bidder's whole capacity
// defeats the online protection argument) and α alone when no bidder is
// capacity constrained (β = ∞).
func CompetitiveBound(alpha float64, cfg MSOAConfig, rounds []Round) float64 {
	beta := math.Inf(1)
	for _, r := range rounds {
		for i := range r.Instance.Bids {
			b := &r.Instance.Bids[i]
			theta, limited := cfg.capacityOf(b.Bidder)
			if !limited || theta <= 0 || len(b.Covers) == 0 {
				continue
			}
			ratio := float64(theta) / float64(len(b.Covers))
			if ratio < beta {
				beta = ratio
			}
		}
	}
	if math.IsInf(beta, 1) {
		return alpha
	}
	if beta <= 1 {
		return math.Inf(1)
	}
	return alpha * beta / (beta - 1)
}
