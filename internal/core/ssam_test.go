package core

import (
	"errors"
	"math"
	"testing"
)

// twoBidderInstance: needy 0 needs 2 units; bidder 1 covers it cheap,
// bidder 2 covers it expensive. Both needed to reach demand 2 with Units=1.
func twoBidderInstance() *Instance {
	return &Instance{
		Demand: []int{2},
		Bids: []Bid{
			{Bidder: 1, Alt: 0, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1},
			{Bidder: 2, Alt: 0, Price: 20, TrueCost: 20, Covers: []int{0}, Units: 1},
		},
	}
}

func TestSSAMSelectsAllWhenAllNeeded(t *testing.T) {
	ins := twoBidderInstance()
	out, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatalf("SSAM failed: %v", err)
	}
	if len(out.Winners) != 2 {
		t.Fatalf("want 2 winners, got %v", out.Winners)
	}
	if out.SocialCost != 30 {
		t.Fatalf("want social cost 30, got %v", out.SocialCost)
	}
	if err := VerifyFeasible(ins, out); err != nil {
		t.Fatal(err)
	}
	if err := VerifyIndividualRationality(ins, out, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSSAMPrefersCheaperPerCoverage(t *testing.T) {
	// Needy 0 and 1 each need 1 unit. Bidder 1 covers both for 12 (6/unit);
	// bidders 2 and 3 cover one each for 7 (7/unit). Greedy takes bidder 1.
	ins := &Instance{
		Demand: []int{1, 1},
		Bids: []Bid{
			{Bidder: 1, Price: 12, TrueCost: 12, Covers: []int{0, 1}, Units: 1},
			{Bidder: 2, Price: 7, TrueCost: 7, Covers: []int{0}, Units: 1},
			{Bidder: 3, Price: 7, TrueCost: 7, Covers: []int{1}, Units: 1},
		},
	}
	out, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatalf("SSAM failed: %v", err)
	}
	if len(out.Winners) != 1 || out.Winners[0] != 0 {
		t.Fatalf("want winner [0], got %v", out.Winners)
	}
	// Critical payment: runner-up per-coverage price is 7; winner marginal
	// is 2 => payment 14.
	if pay := out.Payments[0]; math.Abs(pay-14) > 1e-9 {
		t.Fatalf("want payment 14, got %v", pay)
	}
}

func TestSSAMOneBidPerBidder(t *testing.T) {
	// Bidder 1 submits two alternatives; only one may win even though both
	// are cheaper than bidder 2's bid.
	ins := &Instance{
		Demand: []int{2},
		Bids: []Bid{
			{Bidder: 1, Alt: 0, Price: 1, TrueCost: 1, Covers: []int{0}, Units: 1},
			{Bidder: 1, Alt: 1, Price: 2, TrueCost: 2, Covers: []int{0}, Units: 1},
			{Bidder: 2, Alt: 0, Price: 50, TrueCost: 50, Covers: []int{0}, Units: 1},
		},
	}
	out, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatalf("SSAM failed: %v", err)
	}
	if err := VerifyFeasible(ins, out); err != nil {
		t.Fatal(err)
	}
	if len(out.Winners) != 2 {
		t.Fatalf("want 2 winners, got %v", out.Winners)
	}
	for _, w := range out.Winners {
		if w == 1 {
			t.Fatalf("bidder 1's second alternative should never win alongside the first")
		}
	}
}

func TestSSAMInfeasible(t *testing.T) {
	ins := &Instance{
		Demand: []int{3},
		Bids: []Bid{
			{Bidder: 1, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1},
			{Bidder: 2, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1},
		},
	}
	_, err := SSAM(ins, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestSSAMUnitsCapAtDemand(t *testing.T) {
	// A bid with Units=5 against demand 2 contributes only 2 marginal units.
	ins := &Instance{
		Demand: []int{2},
		Bids: []Bid{
			{Bidder: 1, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 5},
			{Bidder: 2, Price: 4, TrueCost: 4, Covers: []int{0}, Units: 1},
		},
	}
	out, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatalf("SSAM failed: %v", err)
	}
	// Scores: bid0 = 10/2 = 5, bid1 = 4/1 = 4 -> bid1 first, then bid0
	// (marginal 1, score 10). Winners: both.
	if len(out.Winners) != 2 {
		t.Fatalf("want 2 winners, got %v", out.Winners)
	}
	if err := VerifyFeasible(ins, out); err != nil {
		t.Fatal(err)
	}
}

func TestSSAMEmptyDemandSelectsNothing(t *testing.T) {
	ins := &Instance{Demand: []int{0, 0}, Bids: []Bid{
		{Bidder: 1, Price: 3, TrueCost: 3, Covers: []int{0}, Units: 1},
	}}
	out, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatalf("SSAM failed: %v", err)
	}
	if len(out.Winners) != 0 || out.SocialCost != 0 {
		t.Fatalf("want empty outcome, got %+v", out)
	}
}

func TestSSAMCertificate(t *testing.T) {
	ins := &Instance{
		Demand: []int{2, 1, 3},
		Bids: []Bid{
			{Bidder: 1, Price: 12, TrueCost: 12, Covers: []int{0, 1}, Units: 1},
			{Bidder: 2, Price: 7, TrueCost: 7, Covers: []int{0}, Units: 2},
			{Bidder: 3, Price: 9, TrueCost: 9, Covers: []int{1, 2}, Units: 1},
			{Bidder: 4, Price: 15, TrueCost: 15, Covers: []int{2}, Units: 3},
			{Bidder: 5, Price: 6, TrueCost: 6, Covers: []int{2}, Units: 1},
			{Bidder: 6, Price: 11, TrueCost: 11, Covers: []int{0, 2}, Units: 1},
		},
	}
	out, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatalf("SSAM failed: %v", err)
	}
	if err := VerifyFeasible(ins, out); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCertificate(ins, out, nil); err != nil {
		t.Fatal(err)
	}
	if r := out.Dual.Ratio(); r < 1 {
		t.Fatalf("certificate ratio %v < 1", r)
	}
}

func TestSSAMFirstPriceAblation(t *testing.T) {
	ins := twoBidderInstance()
	out, err := SSAM(ins, Options{Payment: FirstPrice})
	if err != nil {
		t.Fatalf("SSAM failed: %v", err)
	}
	for _, w := range out.Winners {
		if out.Payments[w] != ins.Bids[w].Price {
			t.Fatalf("first-price payment mismatch: bid %d paid %v, price %v",
				w, out.Payments[w], ins.Bids[w].Price)
		}
	}
}

func TestSSAMLowestPriceMetricCanBeWorse(t *testing.T) {
	// LowestPrice picks the 3-unit coverage last; PricePerCoverage exploits
	// the bulk bid. Construct: demand 3; bulk bid price 9 covers 3 units
	// (3/unit), three singles at price 4 each (4/unit but lowest absolute).
	ins := &Instance{
		Demand: []int{3},
		Bids: []Bid{
			{Bidder: 1, Price: 9, TrueCost: 9, Covers: []int{0}, Units: 3},
			{Bidder: 2, Price: 4, TrueCost: 4, Covers: []int{0}, Units: 1},
			{Bidder: 3, Price: 4, TrueCost: 4, Covers: []int{0}, Units: 1},
			{Bidder: 4, Price: 4, TrueCost: 4, Covers: []int{0}, Units: 1},
		},
	}
	perCov, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lowest, err := SSAM(ins, Options{Metric: LowestPrice})
	if err != nil {
		t.Fatal(err)
	}
	if perCov.SocialCost > lowest.SocialCost {
		t.Fatalf("per-coverage greedy (%v) should not cost more than lowest-price greedy (%v)",
			perCov.SocialCost, lowest.SocialCost)
	}
	if perCov.SocialCost != 9 {
		t.Fatalf("per-coverage greedy should take the bulk bid (cost 9), got %v", perCov.SocialCost)
	}
}

func TestPaymentReserveWhenNoRunnerUp(t *testing.T) {
	ins := &Instance{
		Demand: []int{1},
		Bids: []Bid{
			{Bidder: 1, Price: 5, TrueCost: 5, Covers: []int{0}, Units: 1},
		},
	}
	out, err := SSAM(ins, Options{Reserve: 35})
	if err != nil {
		t.Fatal(err)
	}
	if pay := out.Payments[0]; pay != 35 {
		t.Fatalf("want reserve payment 35, got %v", pay)
	}
	// Without an explicit reserve and no other bidders, the winner gets its
	// own price.
	out2, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pay := out2.Payments[0]; pay != 5 {
		t.Fatalf("want own-price payment 5, got %v", pay)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		ins  Instance
	}{
		{"negative demand", Instance{Demand: []int{-1}}},
		{"zero units", Instance{Demand: []int{1}, Bids: []Bid{{Bidder: 1, Price: 1, Covers: []int{0}, Units: 0}}}},
		{"empty covers", Instance{Demand: []int{1}, Bids: []Bid{{Bidder: 1, Price: 1, Units: 1}}}},
		{"out of range cover", Instance{Demand: []int{1}, Bids: []Bid{{Bidder: 1, Price: 1, Covers: []int{3}, Units: 1}}}},
		{"duplicate cover", Instance{Demand: []int{1}, Bids: []Bid{{Bidder: 1, Price: 1, Covers: []int{0, 0}, Units: 1}}}},
		{"negative price", Instance{Demand: []int{1}, Bids: []Bid{{Bidder: 1, Price: -2, Covers: []int{0}, Units: 1}}}},
		{"nan price", Instance{Demand: []int{1}, Bids: []Bid{{Bidder: 1, Price: math.NaN(), Covers: []int{0}, Units: 1}}}},
		{"duplicate alt", Instance{Demand: []int{1}, Bids: []Bid{
			{Bidder: 1, Alt: 0, Price: 1, Covers: []int{0}, Units: 1},
			{Bidder: 1, Alt: 0, Price: 2, Covers: []int{0}, Units: 1},
		}}},
		{"duplicate cover after a descent", Instance{Demand: []int{1, 1, 1}, Bids: []Bid{{Bidder: 1, Price: 1, Covers: []int{2, 1, 2}, Units: 1}}}},
		{"duplicate alt out of order", Instance{Demand: []int{1}, Bids: []Bid{
			{Bidder: 1, Alt: 0, Price: 1, Covers: []int{0}, Units: 1},
			{Bidder: 2, Alt: 0, Price: 1, Covers: []int{0}, Units: 1},
			{Bidder: 1, Alt: 0, Price: 2, Covers: []int{0}, Units: 1},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.ins.Validate(); err == nil {
				t.Fatalf("want validation error")
			}
		})
	}
}

// TestValidateCanonicalAllocatesNothing pins the zero-allocation promise
// of Validate (and so of CheckBid) on an instance in canonical
// (Bidder, Alt) order — the shape the platform assembles every round —
// at the platform-fanin benchmark's 20k bids, with some covers out of
// ascending order to exercise CheckBid's duplicate scan.
func TestValidateCanonicalAllocatesNothing(t *testing.T) {
	const bidders, needy = 20000, 8
	ins := &Instance{Demand: make([]int, needy)}
	for i := 1; i <= bidders; i++ {
		k := i % needy
		ins.Bids = append(ins.Bids, Bid{Bidder: i, Alt: 0, Price: float64(i % 60), Covers: []int{k, (k + 1) % needy}, Units: 1})
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { _ = ins.Validate() }); allocs != 0 {
		t.Fatalf("Validate allocates %v times per call on a canonical instance, want 0", allocs)
	}
}

func TestInstanceHelpers(t *testing.T) {
	ins := twoBidderInstance()
	if got := ins.NumNeedy(); got != 1 {
		t.Fatalf("NumNeedy = %d, want 1", got)
	}
	if got := ins.TotalDemand(); got != 2 {
		t.Fatalf("TotalDemand = %d, want 2", got)
	}
	if got := ins.MaxPrice(); got != 20 {
		t.Fatalf("MaxPrice = %v, want 20", got)
	}
	clone := ins.Clone()
	clone.Bids[0].Price = 999
	clone.Bids[0].Covers[0] = 0
	if ins.Bids[0].Price == 999 {
		t.Fatal("Clone shares bid storage with original")
	}
	if !ins.Coverable() {
		t.Fatal("instance should be coverable")
	}
}

func TestUtilityAndWon(t *testing.T) {
	ins := twoBidderInstance()
	out, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins.Bids {
		u := out.Utility(ins, i)
		if out.Won(i) && u < 0 {
			t.Fatalf("winner %d has negative utility %v under truthful bidding", i, u)
		}
		if !out.Won(i) && u != 0 {
			t.Fatalf("loser %d has nonzero utility %v", i, u)
		}
	}
}

// TestReserveSetExplicitZero pins the Reserve==0 sentinel semantics: the
// zero value auto-derives the pivotal-winner reserve from the competition,
// while ReserveSet makes an explicit zero binding (the pivotal winner is
// paid only its own report).
func TestReserveSetExplicitZero(t *testing.T) {
	ins := &Instance{
		Demand: []int{2},
		Bids: []Bid{
			{Bidder: 1, Price: 5, Units: 2, Covers: []int{0}},
			{Bidder: 2, Price: 40, Units: 1, Covers: []int{0}},
		},
	}

	// Unset: bidder 1 wins alone (covers the full demand) and is pivotal;
	// the auto-derived reserve is the best competing scaled price, 40.
	out, err := SSAM(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Winners) != 1 || ins.Bids[out.Winners[0]].Bidder != 1 {
		t.Fatalf("winners = %v, want only bidder 1's bid", out.Winners)
	}
	if got := out.Payments[out.Winners[0]]; got != 40 {
		t.Fatalf("auto-derived pivotal payment = %v, want competitor price 40", got)
	}

	// Explicit zero reserve: the pivotal winner gets exactly its own report.
	out, err = SSAM(ins, Options{Reserve: 0, ReserveSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Payments[out.Winners[0]]; got != 5 {
		t.Fatalf("explicit-zero-reserve pivotal payment = %v, want own price 5", got)
	}
}

// TestSelectBestExactTieLowestIndex locks the tie-break: with three bids at
// EXACTLY equal price-per-coverage score, the lowest bid index must win —
// on the optimized kernel (whose swap-delete candidate list is scanned in
// permuted order and needs an explicit tie-break) and on the reference
// (whose ascending strict-improvement scan IS the tie-break).
func TestSelectBestExactTieLowestIndex(t *testing.T) {
	ins := &Instance{
		Demand: []int{2},
		Bids: []Bid{
			{Bidder: 1, Price: 20, Covers: []int{0}, Units: 2}, // score 20/2 = 10
			{Bidder: 2, Price: 10, Covers: []int{0}, Units: 1}, // score 10/1 = 10
			{Bidder: 3, Price: 10, Covers: []int{0}, Units: 1}, // score 10/1 = 10
		},
	}
	for name, run := range map[string]func(*Instance, Options) (*Outcome, error){
		"kernel":    SSAM,
		"reference": referenceSSAM,
	} {
		out, err := run(ins, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Bid 0 covers the whole demand in one iteration; the exact tie with
		// bids 1 and 2 must resolve to the lowest index.
		if len(out.Winners) != 1 || out.Winners[0] != 0 {
			t.Fatalf("%s: winners = %v, want [0] (lowest-index tie-break)", name, out.Winners)
		}
	}

	// Ties within one iteration AND across successive iterations: four unit
	// bids at the same price must win in ascending index order.
	flat := &Instance{
		Demand: []int{2, 2},
		Bids: []Bid{
			{Bidder: 1, Price: 7, Covers: []int{0, 1}, Units: 1},
			{Bidder: 2, Price: 7, Covers: []int{0, 1}, Units: 1},
			{Bidder: 3, Price: 7, Covers: []int{0, 1}, Units: 1},
			{Bidder: 4, Price: 7, Covers: []int{0, 1}, Units: 1},
		},
	}
	out, err := SSAM(flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1} // two iterations cover demand 2+2; ties resolve upward
	if len(out.Winners) != len(want) {
		t.Fatalf("winners = %v, want %v", out.Winners, want)
	}
	for i := range want {
		if out.Winners[i] != want[i] {
			t.Fatalf("winners = %v, want %v (ascending tie-break order)", out.Winners, want)
		}
	}
}

// TestReservePaymentScaledDomain pins the pivotal-winner reserve semantics
// in MSOA's ψ-scaled price domain: the auto-derived reserve must come from
// the competitors' SCALED prices, an explicit ReserveSet zero stays binding
// (floored at the winner's own SCALED report), and an explicit reserve
// below the winner's own scaled report is raised to that report.
func TestReservePaymentScaledDomain(t *testing.T) {
	// Bidder 1 is the only bidder able to cover needy 1, so it is pivotal
	// in every counterfactual. Bidder 2 competes only on needy 0.
	ins := &Instance{
		Demand: []int{1, 1},
		Bids: []Bid{
			{Bidder: 1, Price: 5, Covers: []int{0, 1}, Units: 1},
			{Bidder: 2, Price: 30, Covers: []int{0}, Units: 1},
		},
	}
	const psi = 2.0
	scaled := []float64{5 * psi, 30 * psi}

	// Auto-derive: the reserve is the best competing SCALED price (60), not
	// the raw competitor price (30).
	out, err := ssamScaled(ins, scaled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Winners) != 1 || out.Winners[0] != 0 {
		t.Fatalf("winners = %v, want [0]", out.Winners)
	}
	if got := out.Payments[0]; got != 60 {
		t.Fatalf("auto-derived scaled-domain reserve payment = %v, want 60", got)
	}

	// Explicit zero reserve: binding, so the pivotal winner is paid its own
	// SCALED report (10), not its raw price (5).
	out, err = ssamScaled(ins, scaled, Options{ReserveSet: true, Reserve: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Payments[0]; got != 10 {
		t.Fatalf("explicit-zero scaled-domain reserve payment = %v, want own scaled report 10", got)
	}

	// Explicit reserve below the winner's own scaled report: individual
	// rationality floors the payment at the scaled report.
	out, err = ssamScaled(ins, scaled, Options{Reserve: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Payments[0]; got != 10 {
		t.Fatalf("below-report reserve payment = %v, want own scaled report 10", got)
	}
}

// TestReservePaymentSingleBidder pins the degenerate single-bidder auction:
// no competitors exist to derive a reserve from, so the pivotal winner is
// paid its own (scaled) report under every reserve configuration except an
// explicit higher reserve.
func TestReservePaymentSingleBidder(t *testing.T) {
	ins := &Instance{
		Demand: []int{2},
		Bids: []Bid{
			{Bidder: 1, Price: 8, Covers: []int{0}, Units: 2},
		},
	}
	cases := []struct {
		name string
		opts Options
		want float64
	}{
		{"auto-derive finds no competitor", Options{}, 8},
		{"explicit zero reserve", Options{ReserveSet: true, Reserve: 0}, 8},
		{"reserve below own report", Options{Reserve: 2}, 8},
		{"reserve above own report", Options{Reserve: 50}, 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := SSAM(ins, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Payments[0]; got != tc.want {
				t.Fatalf("payment = %v, want %v", got, tc.want)
			}
		})
	}
}
