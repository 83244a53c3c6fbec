package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"edgeauction/internal/core"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	if NewRand(7).Int63() == NewRand(8).Int63() {
		t.Fatal("different seeds should diverge immediately (with overwhelming probability)")
	}
}

func TestRandForkIndependence(t *testing.T) {
	parent := NewRand(1)
	child := parent.Fork()
	// The child stream must be reproducible from the same parent state.
	parent2 := NewRand(1)
	child2 := parent2.Fork()
	for i := 0; i < 50; i++ {
		if child.Float64() != child2.Float64() {
			t.Fatal("forked streams must be deterministic")
		}
	}
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	if DeriveSeed(1, "fig3a", 2, 3) != DeriveSeed(1, "fig3a", 2, 3) {
		t.Fatal("DeriveSeed must be a pure function of its coordinate")
	}
	// Every coordinate perturbation must change the seed: distinct cells
	// sample distinct instances.
	base := DeriveSeed(1, "fig3a", 2, 3)
	perturbed := []int64{
		DeriveSeed(2, "fig3a", 2, 3),
		DeriveSeed(1, "fig3b", 2, 3),
		DeriveSeed(1, "fig3a", 3, 3),
		DeriveSeed(1, "fig3a", 2, 4),
		// Swapped point/trial must not collide (sequential mixing).
		DeriveSeed(1, "fig3a", 3, 2),
	}
	seen := map[int64]bool{base: true}
	for i, s := range perturbed {
		if seen[s] {
			t.Fatalf("perturbation %d collided with a previous seed %d", i, s)
		}
		seen[s] = true
	}
	// Sub-seeded streams must themselves diverge.
	a := NewDerived(1, "tag", 0, 0)
	b := NewDerived(1, "tag", 0, 1)
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Fatal("adjacent trial streams should diverge immediately")
	}
}

func TestDeriveSeedAvalanche(t *testing.T) {
	// Neighbouring trial indices must produce well-mixed seeds: over 64
	// trials, the derived seeds' low 32 bits should all be distinct (a
	// linear congruential-style derivation would collide or correlate).
	seen := map[int64]bool{}
	for trial := 0; trial < 64; trial++ {
		s := DeriveSeed(42, "avalanche", 0, trial)
		if seen[s&0xffffffff] {
			t.Fatalf("low-bit collision at trial %d", trial)
		}
		seen[s&0xffffffff] = true
	}
}

func TestUniformIntBounds(t *testing.T) {
	rng := NewRand(3)
	for i := 0; i < 1000; i++ {
		v := rng.UniformInt(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
	}
	if got := rng.UniformInt(4, 4); got != 4 {
		t.Fatalf("degenerate range: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for hi < lo")
		}
	}()
	rng.UniformInt(5, 4)
}

func TestPoissonMeanMatches(t *testing.T) {
	rng := NewRand(5)
	for _, mean := range []float64{0.5, 5, 10, 50} { // 50 exercises the normal path
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(rng.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.1*mean+0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if rng.Poisson(0) != 0 || rng.Poisson(-1) != 0 {
		t.Fatal("non-positive mean must give 0")
	}
}

func TestExponentialMean(t *testing.T) {
	rng := NewRand(6)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += rng.Exponential(0.5) // mean 2
	}
	if got := sum / n; math.Abs(got-2) > 0.1 {
		t.Fatalf("Exponential(0.5) sample mean = %v, want ~2", got)
	}
}

func TestSubsetProperties(t *testing.T) {
	rng := NewRand(8)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%20) + 1
		k := int(kRaw) % (n + 1)
		s := rng.Subset(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		prev := -1
		for _, v := range s {
			if v < 0 || v >= n || seen[v] || v <= prev {
				return false // out of range, duplicate, or unsorted
			}
			seen[v] = true
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassProperties(t *testing.T) {
	if DelaySensitive.ArrivalMean() != 5 || DelayTolerant.ArrivalMean() != 10 {
		t.Fatal("paper's Poisson means are 5 and 10")
	}
	if DelaySensitive.String() == DelayTolerant.String() {
		t.Fatal("class names must differ")
	}
	if Class(0).ArrivalMean() != 0 || !strings.Contains(Class(0).String(), "unknown") {
		t.Fatal("unknown class must be inert")
	}
}

func TestInstanceGeneratorDefaults(t *testing.T) {
	rng := NewRand(1)
	ins := Instance(rng, InstanceConfig{Bidders: 25})
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	// 25 bidders x J=2 + the reserve ladder.
	if len(ins.Bids) <= 25*2 {
		t.Fatalf("bid count = %d, want more than 50 (market + reserve ladder)", len(ins.Bids))
	}
	if ins.NumNeedy() != 5 {
		t.Fatalf("needy = %d, want Bidders/5 = 5", ins.NumNeedy())
	}
	reserveLadder := make(map[int][]core.Bid) // needy -> rungs
	for i, b := range ins.Bids {
		if IsReserveBid(b, 25) {
			if len(b.Covers) != 1 {
				t.Fatalf("reserve rung %d must cover exactly one needy microservice", i)
			}
			if b.Price != 35*float64(b.Units) {
				t.Fatalf("reserve rung %d priced %v, want PriceHi x units = %v", i, b.Price, 35*float64(b.Units))
			}
			reserveLadder[b.Covers[0]] = append(reserveLadder[b.Covers[0]], b)
			continue
		}
		if b.Price < 10 || b.Price >= 35 {
			t.Fatalf("bid %d price %v outside [10,35)", i, b.Price)
		}
		if b.Price != b.TrueCost {
			t.Fatalf("bid %d not truthful by default", i)
		}
	}
	for k, d := range ins.Demand {
		if d == 0 {
			continue
		}
		rungs := reserveLadder[k]
		if len(rungs) == 0 {
			t.Fatalf("needy %d has no reserve ladder", k)
		}
		largest := 0
		for _, r := range rungs {
			if r.Units > largest {
				largest = r.Units
			}
		}
		if largest < d {
			t.Fatalf("needy %d: largest rung %d below demand %d", k, largest, d)
		}
	}
	if !ins.Coverable() {
		t.Fatal("generated instance must be coverable")
	}
}

func TestInstanceGeneratorFeasibleForSSAM(t *testing.T) {
	rng := NewRand(2)
	for trial := 0; trial < 50; trial++ {
		ins := Instance(rng, InstanceConfig{
			Bidders: 1 + rng.Intn(20),
			Needy:   1 + rng.Intn(5),
		})
		if _, err := core.SSAM(ins, core.Options{SkipCertificate: true}); err != nil {
			t.Fatalf("trial %d: generated instance infeasible for SSAM: %v", trial, err)
		}
	}
}

func TestInstanceGeneratorNoReserve(t *testing.T) {
	rng := NewRand(3)
	ins := Instance(rng, InstanceConfig{Bidders: 10, NoReserve: true})
	for _, b := range ins.Bids {
		if IsReserveBid(b, 10) {
			t.Fatal("NoReserve must suppress the reserve pool")
		}
	}
}

func TestInstanceGeneratorPriceJitter(t *testing.T) {
	rng := NewRand(4)
	ins := Instance(rng, InstanceConfig{Bidders: 20, PriceJitter: 0.5})
	marked := 0
	for _, b := range ins.Bids[:len(ins.Bids)-1] {
		if b.Price < b.TrueCost-1e-9 {
			t.Fatalf("jittered price %v below true cost %v", b.Price, b.TrueCost)
		}
		if b.Price > b.TrueCost+1e-9 {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("jitter produced no markups")
	}
}

func TestInstanceConfigValidate(t *testing.T) {
	cases := map[string]InstanceConfig{
		"no bidders":     {},
		"bad prices":     {Bidders: 5, PriceLo: 10, PriceHi: 5},
		"bad demand":     {Bidders: 5, DemandLo: 10, DemandHi: 5},
		"cover too wide": {Bidders: 5, Needy: 2, CoverLo: 1, CoverHi: 9},
		"bad units":      {Bidders: 5, UnitsLo: 3, UnitsHi: 1},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if err := cfg.Validate(); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
	if err := (InstanceConfig{Bidders: 5}).Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
}

func TestOnlineScenarioShape(t *testing.T) {
	rng := NewRand(5)
	scn := Online(rng, OnlineConfig{
		Rounds:          7,
		Stage:           InstanceConfig{Bidders: 10},
		WindowedArrival: true,
	})
	if len(scn.TrueRounds) != 7 || len(scn.EstimatedRounds) != 7 {
		t.Fatalf("rounds = %d/%d, want 7/7", len(scn.TrueRounds), len(scn.EstimatedRounds))
	}
	if len(scn.Capacity) != 10 {
		t.Fatalf("capacities = %d, want 10", len(scn.Capacity))
	}
	if len(scn.Windows) != 10 {
		t.Fatalf("windows = %d, want 10", len(scn.Windows))
	}
	for b, w := range scn.Windows {
		if w.Arrive < 1 || w.Depart > 7 || w.Arrive > w.Depart {
			t.Fatalf("bidder %d has invalid window %+v", b, w)
		}
	}
	for i, r := range scn.TrueRounds {
		if r.T != i+1 {
			t.Fatalf("round %d has T=%d", i, r.T)
		}
		est := scn.EstimatedRounds[i]
		if len(est.Instance.Demand) != len(r.Instance.Demand) {
			t.Fatal("estimated demand vector length mismatch")
		}
		if len(est.Instance.Bids) != len(r.Instance.Bids) {
			t.Fatal("estimated rounds must share the bid structure")
		}
	}
	// β > 1 by default (Theorem 7 needs it): Θ_i > max |S_ij|.
	for b, theta := range scn.Capacity {
		for _, r := range scn.TrueRounds {
			for _, bid := range r.Instance.Bids {
				if bid.Bidder == b && len(bid.Covers) >= theta {
					t.Fatalf("bidder %d capacity %d not above cover size %d", b, theta, len(bid.Covers))
				}
			}
		}
	}
}

func TestOnlineScenarioDeterminism(t *testing.T) {
	a := Online(NewRand(9), OnlineConfig{Rounds: 3, Stage: InstanceConfig{Bidders: 8}})
	b := Online(NewRand(9), OnlineConfig{Rounds: 3, Stage: InstanceConfig{Bidders: 8}})
	for i := range a.TrueRounds {
		ia, ib := a.TrueRounds[i].Instance, b.TrueRounds[i].Instance
		if len(ia.Bids) != len(ib.Bids) {
			t.Fatal("same seed produced different bid counts")
		}
		for j := range ia.Bids {
			if ia.Bids[j].Price != ib.Bids[j].Price {
				t.Fatal("same seed produced different prices")
			}
		}
	}
}

func TestInstanceFileRoundTrip(t *testing.T) {
	ins := Instance(NewRand(13), InstanceConfig{Bidders: 8})
	var buf bytes.Buffer
	if err := WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Bids) != len(ins.Bids) || back.NumNeedy() != ins.NumNeedy() {
		t.Fatal("instance round-trip lost structure")
	}
	for i := range ins.Bids {
		if ins.Bids[i].Price != back.Bids[i].Price || ins.Bids[i].Bidder != back.Bids[i].Bidder {
			t.Fatalf("bid %d mismatch", i)
		}
	}
}

func TestInstanceFileRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":   "nope",
		"wrong kind": `{"kind":"other","version":1,"demand":[1]}`,
		"version":    `{"kind":"edgeauction-instance","version":9,"demand":[1]}`,
		"invalid bid": `{"kind":"edgeauction-instance","version":1,"demand":[1],` +
			`"bids":[{"bidder":1,"alt":0,"price":5,"covers":[9],"units":1}]}`,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadInstance(strings.NewReader(data)); err == nil {
				t.Fatal("want error")
			}
		})
	}
}
