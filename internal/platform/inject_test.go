package platform

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"edgeauction/internal/obs"
)

func bidPolicy(price float64) BidPolicy {
	return func(msg *AnnounceMsg) []WireBid {
		return []WireBid{{Alt: 1, Price: price, Covers: []int{0}, Units: 2}}
	}
}

// TestSendFaultDropsAgentOnAnnounce injects an announce failure for one
// of two agents: the victim must be dropped with the write-timeout cause
// without any socket-level fault, and the round must clear on the
// survivor's bid alone.
func TestSendFaultDropsAgentOnAnnounce(t *testing.T) {
	rec := &obs.Recorder{}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		BidDeadline: 2 * time.Second,
		Tracer:      rec,
		Fault: FaultInjection{
			SendFault: func(round, agentID int, msgType string) error {
				if agentID == 2 && msgType == TypeAnnounce {
					return errors.New("injected partition")
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	a1, err := Dial(srv.Addr(), AgentConfig{ID: 1, Policy: bidPolicy(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a1.Close() }()
	a2, err := Dial(srv.Addr(), AgentConfig{ID: 2, Policy: bidPolicy(5)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a2.Close() }()
	waitCond(t, "both agents registered", func() bool { return srv.AgentCount() == 2 })

	out, err := srv.RunRound([]int{2}, nil)
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if out.Infeasible || len(out.Awards) != 1 || out.Awards[0].Bidder != 1 {
		t.Fatalf("outcome = %+v, want award to agent 1 only", out)
	}
	if srv.AgentCount() != 1 {
		t.Fatalf("agent count = %d, want 1 after injected drop", srv.AgentCount())
	}
	drops := rec.ByKind(obs.KindAgentDrop)
	if len(drops) != 1 {
		t.Fatalf("agent_drop events = %d, want 1 (%v)", len(drops), rec.Kinds())
	}
	if drop := drops[0].(obs.AgentDrop); drop.ID != 2 || drop.Cause != obs.DropWriteTimeout {
		t.Fatalf("drop = %+v, want agent 2 with cause %q", drop, obs.DropWriteTimeout)
	}
}

// TestCorruptPaymentReachesAwards proves the test-only payment
// corruption hook changes what the platform broadcasts and audits while
// leaving the mechanism's own state on the true payments — the defect
// shape the chaos auditor must catch.
func TestCorruptPaymentReachesAwards(t *testing.T) {
	var mu sync.Mutex
	truth := map[int]float64{}
	var audited []*AuditRecord
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		BidDeadline: 2 * time.Second,
		Audit: NewAuditSink(func(rec *AuditRecord) error {
			audited = append(audited, rec)
			return nil
		}),
		Fault: FaultInjection{
			CorruptPayment: func(round int, award WireAward) float64 {
				mu.Lock()
				truth[award.Bidder] = award.Payment
				mu.Unlock()
				return award.Payment / 2
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	a1, err := Dial(srv.Addr(), AgentConfig{ID: 1, Policy: bidPolicy(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a1.Close() }()
	waitCond(t, "agent registered", func() bool { return srv.AgentCount() == 1 })

	out, err := srv.RunRound([]int{2}, nil)
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if len(out.Awards) != 1 {
		t.Fatalf("awards = %+v, want 1", out.Awards)
	}
	mu.Lock()
	want := truth[1] / 2
	mu.Unlock()
	if out.Awards[0].Payment != want {
		t.Fatalf("broadcast payment = %v, want corrupted %v", out.Awards[0].Payment, want)
	}
	if len(audited) != 1 || len(audited[0].Awards) != 1 || audited[0].Awards[0].Payment != want {
		t.Fatalf("audited awards = %+v, want corrupted payment %v", audited, want)
	}
	// The mechanism's cumulative budget advanced on the TRUE payment.
	if sum := srv.Summary(); sum == nil || sum.TotalPayment != truth[1] {
		t.Fatalf("summary = %+v, want mechanism total on true payment %v", srv.Summary(), truth[1])
	}
}

// TestStaleBidsDrainedBeforeAnnounce parks two stale round-1 bid
// messages in the agent's buffer between rounds, then runs round 2: the
// announce-time drain must clear both so the live round-2 bid lands and
// counts.
func TestStaleBidsDrainedBeforeAnnounce(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{BidDeadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	peer := dialRaw(t, srv.Addr(), 1, 0)
	defer func() { _ = peer.conn.Close() }()
	waitCond(t, "peer registered", func() bool { return srv.AgentCount() == 1 })

	done := make(chan *RoundOutcome, 1)
	go func() {
		out, err := srv.RunRound([]int{1}, nil)
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	ann := peer.recv()
	peer.send(&Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: ann.Announce.T, Bids: []WireBid{{Alt: 1, Price: 3, Covers: []int{0}, Units: 1}},
	}})
	if res := peer.recv(); res.Type != TypeResult || len(res.Result.Awards) != 1 {
		t.Fatalf("round 1 result = %+v", res)
	}
	<-done

	// Two stale submissions arrive between rounds; with nobody gathering
	// they sit in the agent's bid buffer.
	for i := 0; i < 2; i++ {
		peer.send(&Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
			T: ann.Announce.T, Bids: []WireBid{{Alt: 1, Price: 999, Covers: []int{0}, Units: 1}},
		}})
	}
	// Give the server's read loop time to park both in the buffer.
	time.Sleep(50 * time.Millisecond)

	go func() {
		out, err := srv.RunRound([]int{1}, nil)
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	ann2 := peer.recv()
	if ann2.Type != TypeAnnounce {
		t.Fatalf("expected announce, got %q", ann2.Type)
	}
	peer.send(&Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: ann2.Announce.T, Bids: []WireBid{{Alt: 1, Price: 7, Covers: []int{0}, Units: 1}},
	}})
	out := <-done
	if out.Infeasible || len(out.Awards) != 1 {
		t.Fatalf("round 2 outcome = %+v, want the live bid to win", out)
	}
	if out.Bids != 1 {
		t.Fatalf("round 2 collected %d bids, want only the live one", out.Bids)
	}
}

// TestDelayedThenLiveBidBuffered sends a stale-tagged bid immediately
// followed by the live one mid-gather: both must buffer (capacity 2), the
// stale tag must be discarded by the gather loop, and the live bid must
// clear the round — regardless of forwarder scheduling.
func TestDelayedThenLiveBidBuffered(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{BidDeadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	peer := dialRaw(t, srv.Addr(), 1, 0)
	defer func() { _ = peer.conn.Close() }()
	waitCond(t, "peer registered", func() bool { return srv.AgentCount() == 1 })

	done := make(chan *RoundOutcome, 1)
	go func() {
		out, err := srv.RunRound([]int{1}, nil)
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	ann := peer.recv()
	// A bid delayed past its own round's deadline arrives now, tagged with
	// the previous round, back-to-back with the live bid.
	peer.send(&Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: ann.Announce.T - 1, Bids: []WireBid{{Alt: 1, Price: 999, Covers: []int{0}, Units: 1}},
	}})
	peer.send(&Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: ann.Announce.T, Bids: []WireBid{{Alt: 1, Price: 4, Covers: []int{0}, Units: 1}},
	}})
	out := <-done
	if out.Infeasible || len(out.Awards) != 1 || out.Awards[0].Payment < 4 {
		t.Fatalf("outcome = %+v, want live bid (price 4) to win", out)
	}
}

// TestAbortFromPolicy crashes an agent from inside its own bid policy
// (which runs on the receive goroutine — Close would deadlock there):
// the server must drop it and clear the round on the survivor.
func TestAbortFromPolicy(t *testing.T) {
	// A crashed agent never answers, so the gather phase runs to the full
	// deadline; keep it short.
	srv, err := NewServer("127.0.0.1:0", ServerConfig{BidDeadline: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	good, err := Dial(srv.Addr(), AgentConfig{ID: 1, Policy: bidPolicy(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = good.Close() }()

	hold := make(chan *Agent, 1)
	crasher, err := Dial(srv.Addr(), AgentConfig{ID: 2, Policy: func(msg *AnnounceMsg) []WireBid {
		a := <-hold
		a.Abort()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	hold <- crasher
	waitCond(t, "both agents registered", func() bool { return srv.AgentCount() == 2 })

	out, err := srv.RunRound([]int{2}, nil)
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if out.Infeasible || len(out.Awards) != 1 || out.Awards[0].Bidder != 1 {
		t.Fatalf("outcome = %+v, want survivor's award", out)
	}
	waitCond(t, "crashed agent deregistered", func() bool { return srv.AgentCount() == 1 })
	select {
	case <-crasher.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("aborted agent's receive loop did not exit")
	}
}

// TestAuditSinkAfterTraceFlush asserts the ordering contract the chaos
// auditor depends on: the per-round trace batch (flushed by the
// platform-scope RoundClose) is delivered before the same round's audit
// record.
func TestAuditSinkAfterTraceFlush(t *testing.T) {
	var order []string // RunRound goroutine only; no mutex needed
	sink := obs.NewRoundSink(func(round int, events []obs.Event) {
		order = append(order, fmt.Sprintf("trace%d", round))
	})
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		BidDeadline: 2 * time.Second,
		Tracer:      sink,
		Audit: NewAuditSink(func(rec *AuditRecord) error {
			order = append(order, fmt.Sprintf("audit%d", rec.T))
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	a1, err := Dial(srv.Addr(), AgentConfig{ID: 1, Policy: bidPolicy(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a1.Close() }()
	waitCond(t, "agent registered", func() bool { return srv.AgentCount() == 1 })

	for i := 0; i < 2; i++ {
		if _, err := srv.RunRound([]int{1}, nil); err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
	}
	want := []string{"trace1", "audit1", "trace2", "audit2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAnnounceOrderFollowsRoster interleaves registrations and drops
// between rounds and checks, through the serial fault-phase hook, that
// every round is announced to exactly the live agents in ascending id
// order: the server's cached sorted roster must be rebuilt after each
// change and reused, unchanged, when nothing changed.
func TestAnnounceOrderFollowsRoster(t *testing.T) {
	var mu sync.Mutex
	announced := map[int][]int{}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		BidDeadline: 2 * time.Second,
		Fault: FaultInjection{
			SendFault: func(round, agentID int, msgType string) error {
				if msgType == TypeAnnounce {
					mu.Lock()
					announced[round] = append(announced[round], agentID)
					mu.Unlock()
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	agents := map[int]*Agent{}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()
	register := func(ids ...int) {
		for _, id := range ids {
			a, err := Dial(srv.Addr(), AgentConfig{ID: id, Policy: bidPolicy(float64(id))})
			if err != nil {
				t.Fatal(err)
			}
			agents[id] = a
		}
		waitCond(t, "registrations", func() bool { return srv.AgentCount() == len(agents) })
	}
	drop := func(ids ...int) {
		for _, id := range ids {
			if err := agents[id].Close(); err != nil {
				t.Fatal(err)
			}
			delete(agents, id)
		}
		waitCond(t, "drops", func() bool { return srv.AgentCount() == len(agents) })
	}
	steps := []func(){
		func() { register(7, 3, 9) },
		func() {}, // no change: the cached roster is reused
		func() { register(1, 12, 5) },
		func() { drop(3) },
		func() { register(4); drop(9) },
		func() { drop(1); register(2, 8) },
		func() {},
		func() { drop(12, 2); register(3) },
	}
	for i, step := range steps {
		step()
		out, err := srv.RunRound([]int{2}, nil)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		var want []int
		for id := range agents {
			want = append(want, id)
		}
		slices.Sort(want)
		mu.Lock()
		got := announced[out.T]
		mu.Unlock()
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (round %d): announced to %v, want the sorted live ids %v", i, out.T, got, want)
		}
	}
}
