package optimal

import (
	"errors"
	"fmt"

	"edgeauction/internal/core"
)

// NameVCG is the registry name of the VCG mechanism. It is registered
// here, not in internal/core, because it needs the exact solver: only
// binaries that link this package list it.
const NameVCG = "vcg"

func init() {
	core.RegisterMechanism(NameVCG, func(core.MechanismSpec) (core.Mechanism, error) {
		return vcgMechanism{}, nil
	})
}

// vcgMechanism is the Vickrey-Clarke-Groves mechanism: the exact optimal
// winner set with Clarke pivot payments. Every solve runs under the
// default node budget with no wall-clock limit, so the outcome is a
// deterministic function of the instance, as the Mechanism contract
// requires.
type vcgMechanism struct{}

func (vcgMechanism) Name() string { return NameVCG }

func (vcgMechanism) Clear(ins *core.Instance, _ core.Options) (*core.Outcome, error) {
	return vcg(ins, Options{})
}

// vcg computes the exact optimal winner set with Clarke pivot payments
//
//	p_i = OPT(without i) − (OPT − price_i),
//
// which is truthful AND allocatively optimal but needs |winners|+1 exact
// NP-hard solves — the computational price SSAM's polynomial-time design
// avoids. opts bounds each underlying solve.
func vcg(ins *core.Instance, opts Options) (*core.Outcome, error) {
	base, err := Solve(ins, opts)
	if errors.Is(err, ErrInfeasible) {
		return nil, fmt.Errorf("%w (VCG: %v)", core.ErrInfeasible, err)
	}
	if err != nil {
		return nil, fmt.Errorf("optimal: VCG base solve: %w", err)
	}
	out := &core.Outcome{
		Winners:  base.Winners,
		Payments: make(map[int]float64, len(base.Winners)),
	}
	for _, w := range base.Winners {
		out.SocialCost += ins.Bids[w].Price
	}
	out.ScaledCost = out.SocialCost
	for _, w := range base.Winners {
		alt, err := Solve(withoutBidder(ins, ins.Bids[w].Bidder), opts)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				// The bidder is pivotal for feasibility: pay its price
				// plus the posted reserve of the rest of the market.
				out.Payments[w] = ins.Bids[w].Price + ins.MaxPrice()
				continue
			}
			return nil, fmt.Errorf("optimal: VCG marginal solve for bid %d: %w", w, err)
		}
		// The max is a numeric guard; theory guarantees pay >= price.
		out.Payments[w] = max(alt.Cost-(base.Cost-ins.Bids[w].Price), ins.Bids[w].Price)
	}
	return out, nil
}

// withoutBidder clones the instance without any bid from the given bidder.
func withoutBidder(ins *core.Instance, bidder int) *core.Instance {
	out := &core.Instance{Demand: append([]int(nil), ins.Demand...)}
	for _, b := range ins.Bids {
		if b.Bidder != bidder {
			out.Bids = append(out.Bids, b.Clone())
		}
	}
	return out
}
