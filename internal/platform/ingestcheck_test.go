package platform

import (
	"strings"
	"testing"
)

// TestInvalidBidFailsOnlyItsSender: one agent submitting a bid that breaks
// the instance rules must get a typed invalid_bid rejection naming the
// rule, stay registered, and leave the round to clear for the honest
// agent. Before the ingest check, the out-of-range cover failed RunRound
// for everyone with "assembled invalid round instance".
func TestInvalidBidFailsOnlyItsSender(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bids   []WireBid
		reason string
	}{
		{"out-of-range cover", []WireBid{{Alt: 0, Price: 1, Covers: []int{99}, Units: 1}}, "out-of-range needy microservice 99"},
		{"zero units", []WireBid{{Alt: 0, Price: 1, Covers: []int{0}, Units: 0}}, "non-positive units"},
		{"negative price", []WireBid{{Alt: 0, Price: -1, Covers: []int{0}, Units: 1}}, "invalid price"},
		{"empty covers", []WireBid{{Alt: 0, Price: 1, Units: 1}}, "covers no needy microservice"},
		{"duplicate cover", []WireBid{{Alt: 0, Price: 1, Covers: []int{0, 0}, Units: 1}}, "twice"},
		{"duplicate alt", []WireBid{
			{Alt: 3, Price: 1, Covers: []int{0}, Units: 1},
			{Alt: 1, Price: 1, Covers: []int{0}, Units: 1},
			{Alt: 3, Price: 2, Covers: []int{0}, Units: 1},
		}, "alternative index 3 submitted twice"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			srv := startServer(t, ServerConfig{})
			dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Policy: coveringPolicy(10, 3)})
			bad := dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Policy: func(*AnnounceMsg) []WireBid { return tc.bids }})
			waitFor(t, "registration", func() bool { return srv.AgentCount() == 2 })

			for round := 1; round <= 2; round++ {
				out, err := srv.RunRound([]int{2}, nil)
				if err != nil {
					t.Fatalf("round %d failed for everyone: %v", round, err)
				}
				if out.Bids != 1 || len(out.Awards) != 1 || out.Awards[0].Bidder != 1 {
					t.Fatalf("round %d: honest bid did not clear alone: %+v", round, out)
				}
			}
			waitFor(t, "invalid_bid rejections", func() bool { return len(bad.Rejections()) == 2 })
			for _, rej := range bad.Rejections() {
				if rej.Code != RejectInvalidBid || rej.Agent != 2 || !strings.Contains(rej.Reason, tc.reason) {
					t.Errorf("rejection %+v, want code %s naming %q", rej, RejectInvalidBid, tc.reason)
				}
			}
			if srv.AgentCount() != 2 {
				t.Errorf("server holds %d agents, want the rejected sender still registered", srv.AgentCount())
			}
		})
	}
}

// TestCheckSubmissionAllocatesNothing pins the ingest check's zero-alloc
// promise over the platform-fanin benchmark's round shape: 20k agents
// with one bid each, some covers out of ascending order, plus the
// multi-bid ascending-alt submissions agents send.
func TestCheckSubmissionAllocatesNothing(t *testing.T) {
	const agents, needy = 20000, 4
	subs := make([][]WireBid, agents)
	for i := range subs {
		k := i % needy
		subs[i] = []WireBid{{Alt: 0, Price: float64(5 + i%60), Covers: []int{k, (k + 1) % needy}, Units: 1 + i%3}}
	}
	subs = append(subs, []WireBid{
		{Alt: 1, Price: 3, Covers: []int{0}, Units: 1},
		{Alt: 2, Price: 4, Covers: []int{1, 2}, Units: 2},
		{Alt: 4, Price: 5, Covers: []int{3, 0}, Units: 1},
	})
	var scratch []int
	allocs := testing.AllocsPerRun(3, func() {
		for _, bids := range subs {
			if err := checkSubmission(bids, needy, &scratch); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("checkSubmission allocates %v times per fan-in round, want 0", allocs)
	}
}
