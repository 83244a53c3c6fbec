package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func dualString(d *DualCertificate) string {
	if d == nil {
		return "<nil>"
	}
	return fmt.Sprintf("{W=%v Xi=%v Primal=%v Obj=%v Y=%v Z=%v}",
		d.W, d.Xi, d.Primal, d.DualObjective, d.Y, d.Z)
}

// This file is the standing differential gate between the optimized kernel
// (kernel.go: CSR covers, compact swap-delete candidates, checkpointed
// payment replays) and the straightforward seed implementation preserved in
// reference_test.go. Every comparison is EXACT — Outcome.Equal applies no
// epsilon — because the kernel's optimizations are designed to preserve the
// float64 operation sequence bit for bit.

// diffOptionGrid enumerates every option combination the differential tests
// sweep: both greedy metrics, both payment rules, the three reserve
// configurations (auto-derive, explicit zero, explicit non-zero), both
// certificate modes, and parallelism 1 and 4.
func diffOptionGrid() []Options {
	var grid []Options
	for _, metric := range []GreedyMetric{PricePerCoverage, LowestPrice} {
		for _, payment := range []PaymentRule{CriticalValue, FirstPrice} {
			for _, reserve := range []Options{
				{},
				{ReserveSet: true, Reserve: 0},
				{Reserve: 40},
			} {
				for _, skipCert := range []bool{false, true} {
					for _, par := range []int{1, 4} {
						grid = append(grid, Options{
							Metric:          metric,
							Payment:         payment,
							Reserve:         reserve.Reserve,
							ReserveSet:      reserve.ReserveSet,
							SkipCertificate: skipCert,
							Parallelism:     par,
						})
					}
				}
			}
		}
	}
	return grid
}

// tieProneInstance generates instances whose scores collide exactly: prices
// from a small discrete grid and units in {1, 2} make equal
// price-per-coverage ratios common, exercising the lowest-index tie-break
// on both paths.
func tieProneInstance(rng *rand.Rand, bidders, needy, bidsPer int) *Instance {
	prices := []float64{8, 10, 12, 16, 24}
	ins := &Instance{Demand: make([]int, needy)}
	for k := range ins.Demand {
		ins.Demand[k] = 1 + rng.Intn(4)
	}
	for b := 1; b <= bidders; b++ {
		for j := 0; j < bidsPer; j++ {
			n := 1 + rng.Intn(needy)
			covers := rng.Perm(needy)[:n]
			sortInts(covers)
			p := prices[rng.Intn(len(prices))]
			ins.Bids = append(ins.Bids, Bid{
				Bidder: b, Alt: j, Price: p, TrueCost: p,
				Covers: covers, Units: 1 + rng.Intn(2),
			})
		}
	}
	// Feasibility reserve supplier (mirrors randomInstance).
	maxD := 0
	all := make([]int, needy)
	for k, d := range ins.Demand {
		all[k] = k
		if d > maxD {
			maxD = d
		}
	}
	ins.Bids = append(ins.Bids, Bid{
		Bidder: bidders + 1, Price: 30 * float64(ins.TotalDemand()),
		TrueCost: 30 * float64(ins.TotalDemand()),
		Covers:   all, Units: maxD,
	})
	return ins
}

// saturationHeavyInstance stresses the lazy-rescore kernel where it is most
// at risk: prefix-nested cover sets over a tiny-demand needy set saturate θ
// within a few iterations, so most bids go dead mid-run and persist only as
// lazily-undiscovered heap entries and retained checkpoint candidates, while
// prices proportional to cover size make almost every live bid carry the
// IDENTICAL price-per-coverage score — every pop is an exact tie resolved
// purely by the lowest-bid-index rule.
func saturationHeavyInstance(rng *rand.Rand, bidders, needy, bidsPer int) *Instance {
	ins := &Instance{Demand: make([]int, needy)}
	for k := range ins.Demand {
		ins.Demand[k] = 1 + rng.Intn(2)
	}
	for b := 1; b <= bidders; b++ {
		for j := 0; j < bidsPer; j++ {
			n := 1 + rng.Intn(needy)
			covers := make([]int, n)
			for i := range covers {
				covers[i] = i // prefix covers: heavy overlap on low needy indices
			}
			price := 10 * float64(n) // unit bids all score exactly 10
			if rng.Intn(4) == 0 {
				price = 20 * float64(n) // a second colliding score class
			}
			units := 1
			if rng.Intn(3) == 0 {
				units = 2
			}
			ins.Bids = append(ins.Bids, Bid{
				Bidder: b, Alt: j, Price: price, TrueCost: price,
				Covers: covers, Units: units,
			})
		}
	}
	// Feasibility reserve supplier (mirrors randomInstance).
	maxD := 0
	all := make([]int, needy)
	for k, d := range ins.Demand {
		all[k] = k
		if d > maxD {
			maxD = d
		}
	}
	ins.Bids = append(ins.Bids, Bid{
		Bidder: bidders + 1, Price: 30 * float64(ins.TotalDemand()),
		TrueCost: 30 * float64(ins.TotalDemand()),
		Covers:   all, Units: maxD,
	})
	return ins
}

// equalScoreInstance makes many bids share one θ=0 score across bidder
// groups: every bid has the same price and covers the same number of needy
// services with the same units, no more than any demand, so every bid's
// θ=0 marginal is equal too. A second price class adds a second tie block.
// The bids are shuffled so each tie block interleaves bidder groups over
// bid indices. The payment replays' θ=0 candidate order then rests on the
// bid-index tie-break alone within each block.
func equalScoreInstance(rng *rand.Rand, bidders, needy, bidsPer int) *Instance {
	ins := &Instance{Demand: make([]int, needy)}
	units := 1 + rng.Intn(2)
	for k := range ins.Demand {
		ins.Demand[k] = units + rng.Intn(3)
	}
	width := 1 + rng.Intn(needy)
	for b := 1; b <= bidders; b++ {
		for j := 0; j < bidsPer; j++ {
			covers := rng.Perm(needy)[:width]
			sortInts(covers)
			p := 12.0
			if rng.Intn(4) == 0 {
				p = 18
			}
			ins.Bids = append(ins.Bids, Bid{
				Bidder: b, Alt: j, Price: p, TrueCost: p,
				Covers: covers, Units: units,
			})
		}
	}
	rng.Shuffle(len(ins.Bids), func(i, j int) { ins.Bids[i], ins.Bids[j] = ins.Bids[j], ins.Bids[i] })
	all := make([]int, needy)
	maxD := 0
	for k, d := range ins.Demand {
		all[k] = k
		if d > maxD {
			maxD = d
		}
	}
	ins.Bids = append(ins.Bids, Bid{
		Bidder: bidders + 1, Price: 30 * float64(ins.TotalDemand()),
		TrueCost: 30 * float64(ins.TotalDemand()),
		Covers:   all, Units: maxD,
	})
	return ins
}

// assertDifferential runs both paths on (ins, scaled, opts) and fails the
// test unless errors and outcomes agree exactly.
func assertDifferential(t *testing.T, ins *Instance, scaled []float64, opts Options, label string) {
	t.Helper()
	want, wantErr := referenceSSAMScaled(ins, scaled, opts)
	got, gotErr := ssamScaled(ins, scaled, opts)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error divergence: reference=%v kernel=%v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text divergence: reference=%q kernel=%q", label, wantErr, gotErr)
		}
		return
	}
	if !want.Equal(got) {
		t.Fatalf("%s: outcome divergence:\nreference: winners=%v social=%v scaled=%v payments=%v dual=%s\nkernel:    winners=%v social=%v scaled=%v payments=%v dual=%s",
			label,
			want.Winners, want.SocialCost, want.ScaledCost, want.Payments, dualString(want.Dual),
			got.Winners, got.SocialCost, got.ScaledCost, got.Payments, dualString(got.Dual))
	}
}

// TestDifferentialSSAM sweeps random and tie-prone instances across the full
// option grid, in both the raw price domain and a ψ-scaled price domain
// (distinct scaled vector, as MSOA rounds produce), asserting bit-identical
// outcomes between the reference and optimized paths.
func TestDifferentialSSAM(t *testing.T) {
	grid := diffOptionGrid()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		var ins *Instance
		if trial%2 == 0 {
			ins = randomInstance(rng, 4+rng.Intn(8), 2+rng.Intn(4), 1+rng.Intn(3))
		} else {
			ins = tieProneInstance(rng, 4+rng.Intn(8), 2+rng.Intn(4), 1+rng.Intn(3))
		}
		raw := make([]float64, len(ins.Bids))
		psi := make([]float64, len(ins.Bids))
		factor := 1 + rng.Float64()
		for i, b := range ins.Bids {
			raw[i] = b.Price
			psi[i] = b.Price * factor
		}
		for oi, opts := range grid {
			assertDifferential(t, ins, raw, opts, labelFor(trial, oi, "raw"))
			assertDifferential(t, ins, psi, opts, labelFor(trial, oi, "psi"))
		}
	}
}

// TestDifferentialSaturationHeavy sweeps the saturation-heavy generator —
// mass mid-run deaths plus wall-to-wall exact score ties — across the full
// option grid in both price domains. This is the deterministic companion of
// the optBits&128 fuzz dimension.
func TestDifferentialSaturationHeavy(t *testing.T) {
	grid := diffOptionGrid()
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 6; trial++ {
		ins := saturationHeavyInstance(rng, 4+rng.Intn(12), 2+rng.Intn(5), 1+rng.Intn(3))
		raw := make([]float64, len(ins.Bids))
		psi := make([]float64, len(ins.Bids))
		factor := 1 + rng.Float64()
		for i, b := range ins.Bids {
			raw[i] = b.Price
			psi[i] = b.Price * factor
		}
		for oi, opts := range grid {
			assertDifferential(t, ins, raw, opts, labelFor(trial, oi, "sat-raw"))
			assertDifferential(t, ins, psi, opts, labelFor(trial, oi, "sat-psi"))
		}
	}
}

// TestDifferentialEqualScores sweeps instances whose bids share one θ=0
// score across bidder groups over the full option grid (both metrics) in
// both price domains: the payment replays' θ=0 order is all ties, so any
// slip in its bid-index tie-break changes a winner or a payment.
func TestDifferentialEqualScores(t *testing.T) {
	grid := diffOptionGrid()
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 16; trial++ {
		ins := equalScoreInstance(rng, 4+rng.Intn(12), 2+rng.Intn(5), 1+rng.Intn(3))
		raw := make([]float64, len(ins.Bids))
		psi := make([]float64, len(ins.Bids))
		factor := 1 + rng.Float64()
		for i, b := range ins.Bids {
			raw[i] = b.Price
			psi[i] = b.Price * factor
		}
		for oi, opts := range grid {
			assertDifferential(t, ins, raw, opts, labelFor(trial, oi, "eq-raw"))
			assertDifferential(t, ins, psi, opts, labelFor(trial, oi, "eq-psi"))
		}
	}
}

func labelFor(trial, opt int, domain string) string {
	return "trial=" + itoa(trial) + " opt=" + itoa(opt) + " domain=" + domain
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestDifferentialSSAMInfeasible locks the error path: both implementations
// must reject an uncoverable instance with the same wrapped ErrInfeasible.
func TestDifferentialSSAMInfeasible(t *testing.T) {
	ins := &Instance{
		Demand: []int{3, 2},
		Bids: []Bid{
			{Bidder: 1, Price: 5, Covers: []int{0}, Units: 1},
			{Bidder: 2, Price: 7, Covers: []int{0}, Units: 1},
		},
	}
	scaled := []float64{5, 7}
	assertDifferential(t, ins, scaled, Options{}, "infeasible")
}

// assertBudgetedDifferential runs the reference and kernel BudgetedSSAM on
// (ins, budget, opts) and fails the test unless errors, outcomes and the
// budget accounting agree exactly.
func assertBudgetedDifferential(t *testing.T, ins *Instance, budget float64, opts Options, label string) {
	t.Helper()
	want, wantErr := referenceBudgetedSSAM(ins, budget, opts)
	got, gotErr := BudgetedSSAM(ins, budget, opts)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s budget %v: error divergence: reference=%v kernel=%v", label, budget, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !want.Outcome.Equal(&got.Outcome) {
		t.Fatalf("%s budget %v: outcome divergence:\nreference: %+v\nkernel:    %+v", label, budget, want.Outcome, got.Outcome)
	}
	if want.BudgetSpent != got.BudgetSpent || want.UncoveredDemand != got.UncoveredDemand {
		t.Fatalf("%s budget %v: accounting divergence: reference spent=%v uncovered=%d, kernel spent=%v uncovered=%d",
			label, budget, want.BudgetSpent, want.UncoveredDemand, got.BudgetSpent, got.UncoveredDemand)
	}
	if len(want.RejectedByBudget) != len(got.RejectedByBudget) {
		t.Fatalf("%s budget %v: rejected divergence: %v vs %v", label, budget, want.RejectedByBudget, got.RejectedByBudget)
	}
	for i := range want.RejectedByBudget {
		if want.RejectedByBudget[i] != got.RejectedByBudget[i] {
			t.Fatalf("%s budget %v: rejected divergence: %v vs %v", label, budget, want.RejectedByBudget, got.RejectedByBudget)
		}
	}
}

// TestDifferentialBudgetedSSAM holds BudgetedSSAM (now kernel-backed) to
// the seed behavior across budgets that never bind, bind mid-run, and
// afford nothing, on tie-prone and equal-score instances.
func TestDifferentialBudgetedSSAM(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		var ins *Instance
		if trial < 6 {
			ins = tieProneInstance(rng, 4+rng.Intn(6), 2+rng.Intn(3), 1+rng.Intn(2))
		} else {
			ins = equalScoreInstance(rng, 4+rng.Intn(8), 2+rng.Intn(4), 1+rng.Intn(3))
		}
		full, err := referenceSSAM(ins, Options{})
		if err != nil {
			t.Fatalf("trial %d: reference full run: %v", trial, err)
		}
		total := full.TotalPayment()
		for _, frac := range []float64{0, 0.3, 0.7, 1, 2} {
			for _, opts := range []Options{
				{},
				{Metric: LowestPrice},
				{Payment: FirstPrice},
				{ReserveSet: true, Reserve: 0},
			} {
				assertBudgetedDifferential(t, ins, total*frac, opts, "trial "+itoa(trial))
			}
		}
	}
}

// FuzzSSAMDifferential fuzzes the reference/kernel equivalence over
// generator seeds and packed option bits. The seed corpus (f.Add) runs as
// ordinary bounded test cases on every `go test`, so the equivalence is a
// standing gate even without -fuzz.
func FuzzSSAMDifferential(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint8(12), uint8(5), uint8(3), uint8(0xFF))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(0x2A))
	f.Add(int64(4), uint8(20), uint8(2), uint8(1), uint8(0x15))
	f.Add(int64(5), uint8(8), uint8(6), uint8(2), uint8(0x63))
	// Saturation-heavy seeds (optBits&128): mass mid-run deaths and exact
	// score collisions, the shapes that stress lazy rescoring hardest.
	f.Add(int64(6), uint8(16), uint8(3), uint8(2), uint8(0x80))
	f.Add(int64(7), uint8(23), uint8(2), uint8(3), uint8(0xA4))
	f.Add(int64(8), uint8(10), uint8(7), uint8(1), uint8(0xD1))
	// Equal-score seeds (bidsPer&0xA0 == 0xA0, a pattern no corpus file
	// under testdata sets, so each of those still builds the instance it
	// always built): one θ=0 score shared across bidder groups, under both
	// metrics, critical-value payments and, with bidsPer&64, a binding
	// budget.
	f.Add(int64(9), uint8(18), uint8(4), uint8(0xA2), uint8(0x00))
	f.Add(int64(10), uint8(22), uint8(6), uint8(0xA1), uint8(0x24))
	f.Add(int64(11), uint8(15), uint8(3), uint8(0xE2), uint8(0x41))
	f.Add(int64(12), uint8(9), uint8(5), uint8(0xE0), uint8(0x06))
	f.Add(int64(13), uint8(20), uint8(2), uint8(0x40), uint8(0x05))
	f.Fuzz(func(t *testing.T, seed int64, bidders, needy, bidsPer, optBits uint8) {
		nb := int(bidders)%24 + 1
		nk := int(needy)%8 + 1
		bp := int(bidsPer)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		var ins *Instance
		switch {
		case bidsPer&0xA0 == 0xA0:
			ins = equalScoreInstance(rng, nb, nk, bp)
		case optBits&128 != 0:
			ins = saturationHeavyInstance(rng, nb, nk, bp)
		case seed%2 == 0:
			ins = randomInstance(rng, nb, nk, bp)
		default:
			ins = tieProneInstance(rng, nb, nk, bp)
		}
		opts := Options{
			SkipCertificate: optBits&1 != 0,
			ReserveSet:      optBits&2 != 0,
		}
		if optBits&4 != 0 {
			opts.Metric = LowestPrice
		}
		if optBits&8 != 0 {
			opts.Payment = FirstPrice
		}
		if optBits&16 != 0 {
			opts.Reserve = 40
		}
		if optBits&32 != 0 {
			opts.Parallelism = 4
		} else {
			opts.Parallelism = 1
		}
		scaled := make([]float64, len(ins.Bids))
		factor := 1.0
		if optBits&64 != 0 {
			factor = 1 + rng.Float64() // ψ-scaled domain
		}
		for i, b := range ins.Bids {
			scaled[i] = b.Price * factor
		}
		assertDifferential(t, ins, scaled, opts, "fuzz")
		if bidsPer&64 != 0 {
			// Budgeted path: the from-scratch replays pull from the same
			// θ=0 order. Half the full run's payments makes the budget bind.
			full, err := referenceSSAM(ins, Options{Metric: opts.Metric})
			if err != nil {
				t.Fatalf("reference full run: %v", err)
			}
			budgeted := opts
			budgeted.Payment = CriticalValue
			assertBudgetedDifferential(t, ins, full.TotalPayment()/2, budgeted, "fuzz budgeted")
		}
	})
}

// TestPriceSpreadMatchesBidderMap holds the kernel's group-walk Ξ to the
// per-bidder map formulation bit for bit, over multi-alternative bidders
// and scaled vectors with zero, negative and tied prices.
func TestPriceSpreadMatchesBidderMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		var ins *Instance
		if trial%2 == 0 {
			ins = randomInstance(rng, 1+rng.Intn(12), 1+rng.Intn(4), 1+rng.Intn(4))
		} else {
			ins = tieProneInstance(rng, 1+rng.Intn(12), 1+rng.Intn(4), 1+rng.Intn(4))
		}
		rng.Shuffle(len(ins.Bids), func(i, j int) { ins.Bids[i], ins.Bids[j] = ins.Bids[j], ins.Bids[i] })
		scaled := make([]float64, len(ins.Bids))
		for i := range scaled {
			switch rng.Intn(8) {
			case 0:
				scaled[i] = 0
			case 1:
				scaled[i] = -rng.Float64()
			default:
				scaled[i] = ins.Bids[i].Price * (1 + rng.Float64())
			}
		}
		kn := kernelPool.Get().(*kernel)
		if err := kn.build(ins, scaled, Options{}); err != nil {
			t.Fatal(err)
		}
		got, want := kn.priceSpread(), bidderPriceSpread(ins, scaled)
		kn.release()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: kernel Ξ = %v, bidder-map Ξ = %v", trial, got, want)
		}
	}
}

// TestCheckpointUntilMatchesCandidateCopies replays the main selection
// loop, copying the live candidate list at every checkpoint, and checks
// that the per-bid until stamps reproduce each copy exactly: checkpoint
// s's set is {b : until[b] > s}.
func TestCheckpointUntilMatchesCandidateCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		var ins *Instance
		if trial%2 == 0 {
			ins = tieProneInstance(rng, 2+rng.Intn(15), 1+rng.Intn(5), 1+rng.Intn(3))
		} else {
			ins = saturationHeavyInstance(rng, 2+rng.Intn(15), 1+rng.Intn(5), 1+rng.Intn(3))
		}
		scaled := make([]float64, len(ins.Bids))
		for i := range ins.Bids {
			scaled[i] = ins.Bids[i].Price
		}
		kn := kernelPool.Get().(*kernel)
		if err := kn.build(ins, scaled, Options{}); err != nil {
			t.Fatal(err)
		}
		var copies [][]bool
		for kn.deficit > 0 {
			best, score, _ := kn.popBest()
			if best < 0 {
				break
			}
			kn.checkpoint(score)
			live := make([]bool, kn.nb)
			for _, b := range kn.cand.list {
				live[b] = true
			}
			copies = append(copies, live)
			kn.removeGroupIn(&kn.cand, kn.groupOf[best])
			kn.applyDirty(best)
		}
		for s, live := range copies {
			for b := 0; b < kn.nb; b++ {
				if inSet := kn.cand.until[b] > int32(s); inSet != live[b] {
					t.Fatalf("trial %d checkpoint %d bid %d: until=%d gives %v, candidate copy has %v",
						trial, s, b, kn.cand.until[b], inSet, live[b])
				}
			}
		}
		kn.release()
	}
}
