package edgeauction

// End-to-end integration tests: each exercises a complete pipeline across
// several packages the way a deployment would, checking the paper's
// economic properties on the way through.

import (
	"bytes"
	"testing"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/federation"
	"edgeauction/internal/optimal"
	"edgeauction/internal/platform"
	"edgeauction/internal/sim"
	"edgeauction/internal/topology"
	"edgeauction/internal/workload"
)

// TestPipelineSimulatorToAuction drives the full §II loop: discrete-event
// simulation -> demand estimation -> bid construction -> online auction,
// verifying feasibility, individual rationality, and capacity accounting
// on every cleared round.
func TestPipelineSimulatorToAuction(t *testing.T) {
	simulator, err := sim.New(sim.Config{
		Services: 24,
		Rounds:   6,
		WorkMean: 600,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := sim.NewBridge(simulator, sim.BridgeConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.MSOAConfig{
		DefaultCapacity:    10,
		CapacityExemptFrom: sim.ReserveBidderID,
	}
	auction := core.NewMSOA(cfg)

	var rounds []core.Round
	var results []*core.RoundResult
	cleared := 0
	for _, rep := range simulator.Run() {
		ar := bridge.Convert(rep)
		if ar.Round.Instance.NumNeedy() == 0 {
			continue
		}
		rounds = append(rounds, ar.Round)
		res := auction.RunRound(ar.Round)
		results = append(results, res)
		if res.Err != nil {
			t.Fatalf("round %d infeasible despite platform reserve: %v", ar.Round.T, res.Err)
		}
		cleared++
		if err := core.VerifyFeasible(ar.Round.Instance, res.Outcome); err != nil {
			t.Fatalf("round %d: %v", ar.Round.T, err)
		}
		if err := core.VerifyIndividualRationality(ar.Round.Instance, res.Outcome, res.Scaled); err != nil {
			t.Fatalf("round %d: %v", ar.Round.T, err)
		}
	}
	if cleared == 0 {
		t.Fatal("contended simulation produced no auctioned rounds")
	}
	if err := core.VerifyCapacity(cfg, rounds, results); err != nil {
		t.Fatal(err)
	}
	sum := auction.Summary()
	if sum.TotalPayment < sum.SocialCost {
		t.Fatalf("payments %v below social cost %v", sum.TotalPayment, sum.SocialCost)
	}
}

// TestPipelineTraceToMechanisms generates a multi-round scenario,
// round-trips every round through the on-disk instance format, and runs
// both the online mechanism and the offline solver on what was read back
// — the workflow of a user replaying recorded rounds.
func TestPipelineTraceToMechanisms(t *testing.T) {
	scn := workload.Online(workload.NewRand(5), workload.OnlineConfig{
		Rounds: 4,
		Stage:  workload.InstanceConfig{Bidders: 12},
	})
	replayed := &workload.Scenario{Capacity: scn.Capacity, Windows: scn.Windows}
	for _, r := range scn.TrueRounds {
		var buf bytes.Buffer
		if err := workload.WriteInstance(&buf, r.Instance); err != nil {
			t.Fatal(err)
		}
		ins, err := workload.ReadInstance(&buf)
		if err != nil {
			t.Fatal(err)
		}
		replayed.TrueRounds = append(replayed.TrueRounds, core.Round{T: r.T, Instance: ins})
	}

	m := core.NewMSOA(replayed.Config(core.Options{}))
	sum := m.Run(replayed.TrueRounds)
	if sum.InfeasibleRounds != 0 {
		t.Fatalf("%d infeasible rounds on reserve-backed trace", sum.InfeasibleRounds)
	}
	// The online cost must stay above the per-round offline optima sum.
	var offline float64
	for _, r := range replayed.TrueRounds {
		res, err := optimal.Solve(r.Instance, optimal.Options{TimeLimit: 2 * time.Second})
		if err != nil {
			t.Fatalf("round %d: %v", r.T, err)
		}
		offline += res.LowerBound
	}
	if sum.SocialCost < offline-1e-6 {
		t.Fatalf("online cost %v beats offline lower bound %v — impossible", sum.SocialCost, offline)
	}
}

// TestPipelinePlatformWithAudit runs the networked deployment with the
// audit log and replays an audited round through the offline solver — the
// dispute-resolution workflow.
func TestPipelinePlatformWithAudit(t *testing.T) {
	var audit bytes.Buffer
	srv, err := platform.NewServer("127.0.0.1:0", platform.ServerConfig{
		BidDeadline: 200 * time.Millisecond,
		Audit:       platform.NewAudit(&audit),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	for i := 1; i <= 4; i++ {
		price := 8 + 4*float64(i)
		agent, err := platform.Dial(srv.Addr(), platform.AgentConfig{
			ID: i,
			Policy: func(msg *platform.AnnounceMsg) []platform.WireBid {
				covers := make([]int, len(msg.Demand))
				for j := range covers {
					covers[j] = j
				}
				return []platform.WireBid{{Alt: 0, Price: price, Covers: covers, Units: 2}}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = agent.Close() }()
	}

	out, err := srv.RunRound([]int{3, 2}, []int{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if out.Infeasible {
		t.Fatal("round infeasible")
	}

	records, err := platform.ReadAudit(bytes.NewReader(audit.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("audit records = %d, want 1", len(records))
	}
	rec := records[0]

	// Rebuild the instance from the audit record and re-solve offline: the
	// audited awards' social cost must be at least the offline optimum.
	ins := &core.Instance{Demand: rec.Demand}
	for _, b := range rec.Bids {
		ins.Bids = append(ins.Bids, core.Bid{
			Bidder: b.Bidder, Alt: b.Alt, Price: b.Price, TrueCost: b.Price,
			Covers: b.Covers, Units: b.Units,
		})
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("audited instance invalid: %v", err)
	}
	res, err := optimal.Solve(ins, optimal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SocialCost < res.Cost-1e-6 {
		t.Fatalf("audited cost %v below offline optimum %v — impossible", rec.SocialCost, res.Cost)
	}
}

// TestPipelineFederatedSimulation runs per-cloud simulated markets through
// the federation: simulator reports are partitioned by hosting cloud and
// cleared with cross-cloud borrowing.
func TestPipelineFederatedSimulation(t *testing.T) {
	topo := topology.Generate(workload.NewRand(9), topology.Config{Clouds: 3, Users: 30})
	simulator, err := sim.New(sim.Config{
		Topology: topo,
		Services: 18,
		Rounds:   4,
		WorkMean: 600,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := sim.NewBridge(simulator, sim.BridgeConfig{Seed: 9, NoPlatformReserve: true})
	if err != nil {
		t.Fatal(err)
	}
	services := map[int]sim.Microservice{}
	for _, ms := range simulator.Services() {
		services[ms.ID] = ms
	}
	fed, err := federation.New(federation.Config{
		Topology:       topo,
		LatencyPremium: 0.2,
		Auction:        core.MSOAConfig{DefaultCapacity: 20},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, rep := range simulator.Run() {
		ar := bridge.Convert(rep)
		ins := ar.Round.Instance
		if ins.NumNeedy() == 0 {
			continue
		}
		// Partition the bridge's market by the bidders' hosting clouds;
		// demand stays with the needy services' clouds.
		markets := map[int]*core.Instance{}
		for cl := 1; cl <= len(topo.Clouds); cl++ {
			markets[cl] = &core.Instance{Demand: make([]int, len(ins.Demand))}
		}
		for k, id := range ar.NeedyIDs {
			markets[services[id].Cloud].Demand[k] = ins.Demand[k]
		}
		for _, b := range ins.Bids {
			cl := services[b.Bidder].Cloud
			markets[cl].Bids = append(markets[cl].Bids, b)
		}
		var cms []federation.CloudMarket
		for cl := 1; cl <= len(topo.Clouds); cl++ {
			cms = append(cms, federation.CloudMarket{Cloud: cl, Instance: markets[cl]})
		}
		if _, err := fed.RunRound(ar.Round.T, cms); err != nil {
			t.Fatalf("federated round %d: %v", ar.Round.T, err)
		}
	}
	if sum := fed.Summary(); sum == nil {
		t.Fatal("federation processed no markets")
	}
}
