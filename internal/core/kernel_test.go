package core

import (
	"math/rand"
	"testing"
)

// TestBetterScore pins the shared greedy comparison (the ONE tie-break rule
// every selection path routes through): strictly lower score wins, and an
// exact float64 score tie falls to the lower bid index — in both argument
// orders, so the rule is a strict weak ordering.
func TestBetterScore(t *testing.T) {
	cases := []struct {
		s1   float64
		b1   int32
		s2   float64
		b2   int32
		want bool
	}{
		{1, 5, 2, 1, true},            // lower score wins regardless of index
		{2, 1, 1, 5, false},           // higher score loses regardless of index
		{3, 2, 3, 7, true},            // exact tie: lower index wins
		{3, 7, 3, 2, false},           // exact tie: higher index loses
		{3, 4, 3, 4, false},           // identical pair: not "better" (strictness)
		{0.1 + 0.2, 9, 0.3, 1, false}, // 0.30000000000000004 > 0.3: no tie
	}
	for _, c := range cases {
		if got := betterScore(c.s1, c.b1, c.s2, c.b2); got != c.want {
			t.Errorf("betterScore(%v,%d,%v,%d) = %v, want %v", c.s1, c.b1, c.s2, c.b2, got, c.want)
		}
	}
}

// TestExactTiePermutedList is the regression test for the permuted-list
// tie-break case: the kernel's candidate list and heap permute entries as
// the run progresses (swap-deletes, sift-downs), so the lowest-bid-index
// rule must be applied explicitly rather than inherited from scan order.
// The instance makes the rule fully observable from the outside: every bid
// covers exactly one unit-demand needy service at the same price, so EVERY
// live bid carries the identical score at every iteration, the greedy
// winner is always the lowest-index live bid, and a bid dies exactly when
// its needy service is covered. A transparent mini-oracle computes the
// unique correct winner sequence under that rule, and the assignment of
// needy targets to bid indices is re-permuted every trial.
func TestExactTiePermutedList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const needy, perNeedy = 4, 3
	for trial := 0; trial < 25; trial++ {
		// target[i] is the single needy service bid i covers: perNeedy
		// duplicate bids per needy, scattered over bid indices.
		target := make([]int, 0, needy*perNeedy)
		for k := 0; k < needy; k++ {
			for j := 0; j < perNeedy; j++ {
				target = append(target, k)
			}
		}
		rng.Shuffle(len(target), func(i, j int) { target[i], target[j] = target[j], target[i] })

		ins := &Instance{Demand: make([]int, needy)}
		for k := range ins.Demand {
			ins.Demand[k] = 1
		}
		for i, k := range target {
			ins.Bids = append(ins.Bids, Bid{
				Bidder: i + 1, Price: 10, TrueCost: 10,
				Covers: []int{k}, Units: 1,
			})
		}

		// Mini-oracle: repeatedly select the lowest-index bid whose needy
		// service is still uncovered.
		covered := make([]bool, needy)
		var want []int
		for len(want) < needy {
			for i, k := range target {
				if !covered[k] {
					covered[k] = true
					want = append(want, i)
					break
				}
			}
		}

		for _, opts := range []Options{
			{},
			{Metric: LowestPrice},
			{Payment: FirstPrice, SkipCertificate: true},
			{Parallelism: 4},
		} {
			out, err := SSAM(ins, opts)
			if err != nil {
				t.Fatalf("trial %d: SSAM: %v", trial, err)
			}
			if len(out.Winners) != len(want) {
				t.Fatalf("trial %d opts %+v: got %d winners %v, want %v", trial, opts, len(out.Winners), out.Winners, want)
			}
			for i := range want {
				if out.Winners[i] != want[i] {
					t.Fatalf("trial %d opts %+v: winner sequence %v violates the lowest-index tie-break, want %v (targets %v)",
						trial, opts, out.Winners, want, target)
				}
			}
		}
	}
}

// TestKernelPoolReuseAcrossShapes drives the pooled kernel and replay
// scratches through back-to-back instances of sharply different sizes and
// generator families, holding every run to the reference oracle. A pooled
// buffer that survives a resize, a stale epoch or heap entry, or any other
// state leaking across builds would surface as a differential divergence
// here. Parallelism rotates so replay scratches also cross shapes.
func TestKernelPoolReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ bidders, needy, bidsPer int }{
		{40, 6, 3}, {2, 1, 1}, {25, 8, 2}, {3, 2, 1}, {50, 4, 3},
	}
	for round := 0; round < 3; round++ {
		for si, sh := range shapes {
			var ins *Instance
			switch si % 3 {
			case 0:
				ins = randomInstance(rng, sh.bidders, sh.needy, sh.bidsPer)
			case 1:
				ins = tieProneInstance(rng, sh.bidders, sh.needy, sh.bidsPer)
			default:
				ins = saturationHeavyInstance(rng, sh.bidders, sh.needy, sh.bidsPer)
			}
			scaled := make([]float64, len(ins.Bids))
			for i, b := range ins.Bids {
				scaled[i] = b.Price
			}
			opts := Options{Parallelism: 1 + (round+si)%4}
			assertDifferential(t, ins, scaled, opts,
				"pool-reuse round="+itoa(round)+" shape="+itoa(si))

			// Budgeted path: exercises from-scratch replay scratch reuse.
			full, err := referenceSSAM(ins, opts)
			if err != nil {
				t.Fatalf("round %d shape %d: reference: %v", round, si, err)
			}
			budget := full.TotalPayment() * 0.6
			want, wantErr := referenceBudgetedSSAM(ins, budget, opts)
			got, gotErr := BudgetedSSAM(ins, budget, opts)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d shape %d: budgeted error divergence: %v vs %v", round, si, wantErr, gotErr)
			}
			if wantErr == nil && !want.Outcome.Equal(&got.Outcome) {
				t.Fatalf("round %d shape %d: budgeted divergence:\nreference: %+v\nkernel:    %+v", round, si, want.Outcome, got.Outcome)
			}
		}
	}
}

// settleShapedInstance mirrors one round of the platform settle load: 2000
// bidders with 4 alternatives each, covering one or two of 40 needy
// services (demand 2–10) at prices 5–64 and 1–3 units, as the load
// generator's dynamic fleet submits them in round t.
func settleShapedInstance(t int) *Instance {
	const bidders, alts, needy = 2000, 4, 40
	rng := rand.New(rand.NewSource(int64(1000 + t)))
	ins := &Instance{Demand: make([]int, needy)}
	for k := range ins.Demand {
		ins.Demand[k] = 2 + rng.Intn(9)
	}
	for id := 1; id <= bidders; id++ {
		for alt := 0; alt < alts; alt++ {
			k := (id + alt) % needy
			covers := []int{k}
			if (id+t)%3 == 0 {
				covers = append(covers, (k+1)%needy)
			}
			sortInts(covers)
			p := float64(5 + (id*7+t*13+alt*29)%60)
			ins.Bids = append(ins.Bids, Bid{
				Bidder: id, Alt: alt, Price: p, TrueCost: p,
				Covers: covers, Units: 1 + (id+t)%3,
			})
		}
	}
	return ins
}

// TestReplayPullsFewBids is a machine-independent work gate on the payment
// phase. A critical-value replay pulls candidates from the kernel's sorted
// θ=0 order only until its heap's root beats the order's next key, so on a
// settle-shaped round each replay should score a small share of the bids —
// not every bid of its checkpoint's candidate set, which is what seeding a
// fresh heap per winner costs. The gate reads the replay's stream cursor.
func TestReplayPullsFewBids(t *testing.T) {
	const maxShare = 0.25
	opts := Options{SkipCertificate: true, Parallelism: 1}
	rs := new(replayScratch)
	for round := 0; round < 3; round++ {
		ins := settleShapedInstance(round)
		scaled := make([]float64, len(ins.Bids))
		for i, b := range ins.Bids {
			scaled[i] = b.Price
		}
		kn := kernelPool.Get().(*kernel)
		if err := kn.build(ins, scaled, opts); err != nil {
			t.Fatal(err)
		}
		kn.buildOrder(false)
		if err := kn.selectWinners(ins, opts, &Outcome{}, nil); err != nil {
			t.Fatal(err)
		}
		pulled := 0
		for s, w := range kn.winners {
			kn.criticalValue(ins, int32(w), s, opts, rs)
			pulled += rs.next
		}
		if pulled == 0 {
			t.Fatalf("round %d: no replay pulled a bid; is the candidate order built?", round)
		}
		share := float64(pulled) / float64(len(kn.winners)*kn.nb)
		t.Logf("round %d: %d winners, %d bids, mean %.0f pulled per replay (%.1f%%)",
			round, len(kn.winners), kn.nb, float64(pulled)/float64(len(kn.winners)), 100*share)
		if share > maxShare {
			t.Errorf("round %d: a replay pulls %.1f%% of the bids on average, want ≤ %.0f%%", round, 100*share, 100*maxShare)
		}
		kn.release()
	}
}

// TestSSAMPaymentsAllocs holds serial SSAM with critical-value payments to
// its constant result-assembly allocations (scaled slice, Outcome, winner
// copy, payments map): the pooled kernel, its θ=0 candidate order and the
// replay scratch must not allocate in steady state.
func TestSSAMPaymentsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled paths allocate")
	}
	ins := settleShapedInstance(0)
	opts := Options{SkipCertificate: true, Parallelism: 1}
	if _, err := SSAM(ins, opts); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SSAM(ins, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Fatalf("serial SSAM with critical-value payments allocates %v/op, want ≤ 7", allocs)
	}
}
