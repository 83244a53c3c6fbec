package chaos

import (
	"fmt"
	"io"
	"log"
	"math"
	"sync"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/federation"
	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
	"edgeauction/internal/topology"
	"edgeauction/internal/workload"
)

// Config parameterizes one chaos run.
type Config struct {
	// Scenario declares the run; it is validated before anything starts.
	Scenario *Scenario
	// AuditLog receives the auditor's deterministic per-round JSONL; nil
	// discards it. Two runs of the same scenario produce byte-identical
	// streams here.
	AuditLog io.Writer
	// TraceLog receives the raw timestamped obs event stream; nil
	// disables it. Unlike the audit log it is NOT deterministic.
	TraceLog io.Writer
	// DumpDir, when set, receives one JSON evidence file per violated
	// round for one-command repro.
	DumpDir string
	// BreakPayments enables the deliberately broken payment rule (a 10%
	// platform skim on every award) that the auditor must catch within
	// one round. It exists to prove the auditor is live.
	BreakPayments bool
	// MaxViolations stops the run after this many violations; 0 means 1.
	// Use a negative value to keep running through all violations.
	MaxViolations int
	// Logger receives operational progress; nil discards it.
	Logger *log.Logger
}

// Result summarizes a chaos run.
type Result struct {
	// Scenario and Seed identify the run for repro.
	Scenario string
	Seed     int64
	// Rounds is the number of platform rounds audited; Infeasible counts
	// those whose demand could not be covered.
	Rounds     int
	Infeasible int
	// FedRounds counts the interleaved federated rounds.
	FedRounds int
	// Checks is the total number of invariant checks performed.
	Checks int
	// Violations holds every invariant violation found (empty on a clean
	// run).
	Violations []Violation
	// Dumps lists evidence files written for violated rounds.
	Dumps []string
	// Actions counts executed agent actions by kind (bid, crash, delay,
	// slow, abstain), so tests can assert a scenario exercised the fault
	// paths it was written for.
	Actions map[string]int
	// Summary is the platform mechanism's aggregate outcome.
	Summary *core.OnlineSummary
}

// instruction tells an agent's bid policy what to do for one round.
type instruction struct {
	t      int
	mode   string
	bids   []platform.WireBid
	staleT int
	stale  []platform.WireBid
}

// engine drives one scenario against a real platform.Server.
type engine struct {
	cfg Config
	sc  *Scenario
	srv *platform.Server
	aud *auditor
	log *log.Logger

	specs map[int]AgentSpec

	mu           sync.Mutex
	agents       map[int]*platform.Agent
	inst         map[int]instruction
	slow         map[int]bool
	pendingStale map[int]instruction
	awayUntil    map[int]int
	left         map[int]bool

	actions map[string]int

	fed    *federation.Federation
	fedRes int
}

// Run executes one scenario to completion (or to the violation budget)
// and returns the audited result. The run is deterministic: every random
// draw derives from Scenario.Seed via workload.DeriveSeed sub-streams, so
// the audit log is byte-identical across runs of the same scenario.
func Run(cfg Config) (*Result, error) {
	sc := cfg.Scenario
	if sc == nil {
		return nil, fmt.Errorf("chaos: no scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	maxViol := cfg.MaxViolations
	if maxViol == 0 {
		maxViol = 1
	}
	aud := newAuditor(sc, cfg.AuditLog, cfg.DumpDir, maxViol, logger)

	e := &engine{
		cfg:          cfg,
		sc:           sc,
		aud:          aud,
		log:          logger,
		specs:        map[int]AgentSpec{},
		agents:       map[int]*platform.Agent{},
		inst:         map[int]instruction{},
		slow:         map[int]bool{},
		pendingStale: map[int]instruction{},
		awayUntil:    map[int]int{},
		left:         map[int]bool{},
		actions:      map[string]int{},
	}
	for _, a := range sc.Agents {
		e.specs[a.ID] = a
	}

	var tracer obs.Tracer = obs.NewRoundSink(aud.storeBatch)
	if cfg.TraceLog != nil {
		tracer = obs.NewMulti(tracer, obs.NewJSONL(cfg.TraceLog))
	}
	srvCfg := platform.ServerConfig{
		BidDeadline:  time.Duration(sc.BidDeadlineMS) * time.Millisecond,
		WriteTimeout: 250 * time.Millisecond,
		Auction:      core.MSOAConfig{Mechanism: sc.MechanismSpec(), Options: core.Options{Parallelism: 1}},
		Tracer:       tracer,
		Audit:        platform.NewAuditSink(aud.auditRound),
		Fault: platform.FaultInjection{
			SendFault: e.sendFault,
		},
	}
	if cfg.BreakPayments {
		srvCfg.Fault.CorruptPayment = func(t int, award platform.WireAward) float64 {
			return award.Payment * 0.9 // the platform skims 10% off every award
		}
	}
	srv, err := platform.NewServer("127.0.0.1:0", srvCfg)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	defer func() {
		_ = srv.Close()
		e.closeAgents()
	}()

	for t := 1; t <= sc.Rounds; t++ {
		if err := e.preRound(t); err != nil {
			return nil, err
		}
		demand := e.prepare(t)
		if _, err := srv.RunRound(demand, nil); err != nil {
			return nil, fmt.Errorf("chaos: round %d: %w", t, err)
		}
		e.postRound(t)
		if sc.Federation != nil && t%sc.Federation.Every == 0 {
			if err := e.fedRound(t); err != nil {
				return nil, err
			}
		}
		if e.aud.stop() {
			logger.Printf("chaos: stopping after round %d: violation budget (%d) exhausted", t, maxViol)
			break
		}
	}

	res := &Result{
		Scenario:   sc.Name,
		Seed:       sc.Seed,
		Rounds:     e.aud.rounds,
		Infeasible: e.aud.infeasible,
		FedRounds:  e.fedRes,
		Checks:     e.aud.checks,
		Violations: append([]Violation(nil), e.aud.violations...),
		Dumps:      append([]string(nil), e.aud.dumps...),
		Actions:    e.actions,
		Summary:    srv.Summary(),
	}
	return res, nil
}

// sendFault is the platform fault hook: announces to agents marked slow
// this round fail as write timeouts, so the server deterministically
// drops them before gathering.
func (e *engine) sendFault(t, agentID int, msgType string) error {
	if msgType != platform.TypeAnnounce {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.slow[agentID] {
		return fmt.Errorf("chaos: injected slow writer on agent %d", agentID)
	}
	return nil
}

// policyFor builds agent id's bid policy. It runs on the agent's receive
// goroutine and only consults the engine's instruction table, so agent
// behavior is a pure function of (scenario, seed, round).
func (e *engine) policyFor(id int) platform.BidPolicy {
	return func(msg *platform.AnnounceMsg) []platform.WireBid {
		e.mu.Lock()
		in, ok := e.inst[id]
		ag := e.agents[id]
		e.mu.Unlock()
		if !ok || ag == nil || in.t != msg.T {
			return nil
		}
		if in.mode == ActCrash {
			// Crash mid-bid: RST the connection from inside the policy,
			// exactly as a dying process would.
			ag.Abort()
			return nil
		}
		if len(in.stale) > 0 {
			// Deliver last round's withheld bids FIRST, still tagged with
			// the old round: the server must discard them by tag while
			// keeping this agent's live submission countable.
			_ = ag.Submit(in.staleT, in.stale)
		}
		switch in.mode {
		case ActAbstain:
			// Answer promptly with zero bids rather than timing out.
			_ = ag.Submit(msg.T, nil)
			return nil
		case ActDelay:
			// Withhold everything past the deadline; prepare() parked the
			// bids for next round's stale replay.
			return nil
		}
		return in.bids
	}
}

// preRound applies scripted joins/leaves/resets and due rejoins, then
// waits until the server's registration table agrees with the engine's
// view so round t opens against a deterministic agent set.
func (e *engine) preRound(t int) error {
	// Initial and scripted joins from the agent specs.
	for _, spec := range e.sc.Agents {
		join := spec.Join
		if join < 1 {
			join = 1
		}
		if t == join {
			if err := e.dial(spec.ID); err != nil {
				return err
			}
		}
		if spec.Leave > 0 && t == spec.Leave {
			e.depart(spec.ID, true)
		}
	}
	// Due rejoins after crash/slow drops.
	e.mu.Lock()
	var due []int
	for id, at := range e.awayUntil {
		if t >= at && !e.left[id] {
			due = append(due, id)
		}
	}
	e.mu.Unlock()
	for _, id := range due {
		if err := e.dial(id); err != nil {
			return err
		}
		e.mu.Lock()
		delete(e.awayUntil, id)
		e.mu.Unlock()
	}
	// Scripted between-round events.
	for _, ev := range e.sc.Events {
		if ev.Round != t {
			continue
		}
		switch ev.Action {
		case ActJoin:
			if err := e.dial(ev.Agent); err != nil {
				return err
			}
			e.mu.Lock()
			delete(e.left, ev.Agent)
			delete(e.awayUntil, ev.Agent)
			e.mu.Unlock()
		case ActLeave:
			e.depart(ev.Agent, true)
		case ActReset:
			e.reset(ev.Agent, t)
		}
	}
	// Let the server's registration table catch up before announcing.
	e.mu.Lock()
	want := len(e.agents)
	e.mu.Unlock()
	if !waitFor(2*time.Second, func() bool { return e.srv.AgentCount() == want }) {
		return fmt.Errorf("chaos: round %d: server sees %d agents, engine expects %d", t, e.srv.AgentCount(), want)
	}
	return nil
}

// dial connects one agent, retrying while the server still holds the
// previous (crashed) registration.
func (e *engine) dial(id int) error {
	e.mu.Lock()
	if e.agents[id] != nil {
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()
	spec := e.specs[id]
	cfg := platform.AgentConfig{
		ID: id, Capacity: spec.Capacity, Policy: e.policyFor(id),
		DialTimeout: 2 * time.Second, WriteTimeout: 250 * time.Millisecond,
	}
	var ag *platform.Agent
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for {
		ag, err = platform.Dial(e.srv.Addr(), cfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: agent %d join: %w", id, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.mu.Lock()
	e.agents[id] = ag
	e.mu.Unlock()
	return nil
}

// depart removes an agent gracefully. permanent blocks future rejoins.
func (e *engine) depart(id int, permanent bool) {
	e.mu.Lock()
	ag := e.agents[id]
	delete(e.agents, id)
	delete(e.pendingStale, id)
	if permanent {
		e.left[id] = true
	}
	e.mu.Unlock()
	if ag != nil {
		_ = ag.Close()
	}
}

// reset hard-kills an agent between rounds (scripted TCP reset) and
// schedules its rejoin like a crash.
func (e *engine) reset(id, t int) {
	e.mu.Lock()
	ag := e.agents[id]
	delete(e.agents, id)
	delete(e.pendingStale, id)
	e.mu.Unlock()
	if ag == nil {
		return
	}
	ag.Abort()
	<-ag.Done()
	e.markAway(id, t)
}

// markAway schedules a killed agent's rejoin (or retires it when the
// scenario has no rejoin interval).
func (e *engine) markAway(id, t int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sc.Churn.RejoinAfter > 0 {
		e.awayUntil[id] = t + e.sc.Churn.RejoinAfter
	} else {
		e.left[id] = true
	}
}

// prepare draws round t's demand and every live agent's action from the
// scenario's seed sub-streams, then publishes the instruction table the
// bid policies read.
func (e *engine) prepare(t int) []int {
	demand := e.demandFor(t)

	scripted := map[int]string{}
	for _, ev := range e.sc.Events {
		if ev.Round != t {
			continue
		}
		switch ev.Action {
		case ActCrash, ActDelay, ActSlow, ActAbstain, ActBid:
			scripted[ev.Agent] = ev.Action
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.slow = map[int]bool{}
	e.inst = map[int]instruction{}
	c := e.sc.Churn
	for id := range e.agents {
		// One draw per (round, agent) from a private sub-stream, so agent
		// actions are independent of map iteration order.
		mode := ActBid
		p := workload.NewDerived(e.sc.Seed, "churn", t, id).Float64()
		switch {
		case p < c.CrashProb:
			mode = ActCrash
		case p < c.CrashProb+c.DelayProb:
			mode = ActDelay
		case p < c.CrashProb+c.DelayProb+c.SlowProb:
			mode = ActSlow
		case p < c.CrashProb+c.DelayProb+c.SlowProb+c.AbstainProb:
			mode = ActAbstain
		}
		if m, ok := scripted[id]; ok {
			mode = m
		}
		in := instruction{t: t, mode: mode}
		if park, ok := e.pendingStale[id]; ok && mode != ActCrash && mode != ActSlow {
			in.staleT, in.stale = park.t, park.bids
			delete(e.pendingStale, id)
		}
		bids := e.bidsFor(id, t, len(demand))
		switch mode {
		case ActBid:
			in.bids = bids
		case ActDelay:
			// Park this round's bids; they surface next round as a stale
			// submission.
			e.pendingStale[id] = instruction{t: t, bids: bids}
		case ActSlow:
			e.slow[id] = true
			delete(e.pendingStale, id)
		case ActCrash:
			delete(e.pendingStale, id)
		}
		e.inst[id] = in
		e.actions[mode]++
	}
	return demand
}

// demandFor draws round t's residual demand, applying periodic and
// scripted spikes.
func (e *engine) demandFor(t int) []int { return scenarioDemand(e.sc, t) }

// bidsFor draws agent id's alternative bids for round t.
func (e *engine) bidsFor(id, t, needy int) []platform.WireBid {
	return scenarioBids(e.sc, e.specs[id], t, needy)
}

// scenarioDemand is round t's residual demand as a pure function of the
// scenario — shared by the churn engine and the equivalence harness,
// whose restarted platform must see exactly the demand the dead one
// announced.
func scenarioDemand(sc *Scenario, t int) []int {
	if len(sc.wlDemand) >= t && t >= 1 {
		// Workload-driven scenario: Validate precomputed the schedule from
		// the simulated service graph; spikes and DemandSpec do not apply.
		return append([]int(nil), sc.wlDemand[t-1]...)
	}
	d := sc.Demand
	rng := workload.NewDerived(sc.Seed, "demand", t, 0)
	needy := rng.UniformInt(d.NeedyLo, d.NeedyHi)
	factor := 1.0
	if d.SpikeEvery > 0 && t%d.SpikeEvery == 0 {
		factor = d.SpikeFactor
	}
	for _, ev := range sc.Events {
		if ev.Round == t && ev.Action == ActSpike {
			factor = ev.Factor
			if factor == 0 {
				factor = d.SpikeFactor
			}
		}
	}
	demand := make([]int, needy)
	for k := range demand {
		demand[k] = int(math.Round(float64(rng.UniformInt(d.DemandLo, d.DemandHi)) * factor))
		if demand[k] < 1 {
			demand[k] = 1
		}
	}
	return demand
}

// scenarioBids draws one agent's alternative bids for round t as a pure
// function of (scenario seed, agent, round) — a crashed and re-announced
// round regenerates bit-identical bids.
func scenarioBids(sc *Scenario, spec AgentSpec, t, needy int) []platform.WireBid {
	rng := workload.NewDerived(sc.Seed, "bid", spec.ID, t)
	bids := make([]platform.WireBid, 0, spec.BidsPer)
	maxWidth := 2
	if needy < maxWidth {
		maxWidth = needy
	}
	for alt := 1; alt <= spec.BidsPer; alt++ {
		width := rng.UniformInt(1, maxWidth)
		bids = append(bids, platform.WireBid{
			Alt:    alt,
			Covers: rng.Subset(needy, width),
			Price:  rng.Uniform(spec.PriceLo, spec.PriceHi) * float64(width),
			Units:  rng.UniformInt(1, 2),
		})
	}
	return bids
}

// postRound reaps agents the round killed (crashes and injected slow
// writers) and schedules their rejoin.
func (e *engine) postRound(t int) {
	e.mu.Lock()
	var dead []int
	for id := range e.agents {
		if in, ok := e.inst[id]; ok && in.t == t && (in.mode == ActCrash || in.mode == ActSlow) {
			dead = append(dead, id)
		}
	}
	e.mu.Unlock()
	for _, id := range dead {
		e.mu.Lock()
		ag := e.agents[id]
		delete(e.agents, id)
		e.mu.Unlock()
		if ag == nil {
			continue
		}
		if in, _ := e.instFor(id, t); in.mode == ActSlow {
			// The server already dropped the connection; make sure the
			// client side is dead too before re-dialing later.
			ag.Abort()
		}
		select {
		case <-ag.Done():
		case <-time.After(2 * time.Second):
			e.log.Printf("chaos: round %d: agent %d did not die cleanly", t, id)
			_ = ag.Close()
		}
		e.markAway(id, t)
	}
}

func (e *engine) instFor(id, t int) (instruction, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in, ok := e.inst[id]
	return in, ok && in.t == t
}

// fedRound interleaves one multi-cloud federated round with the platform
// rounds and hands the result to the auditor. The federation keeps its
// own online mechanism state across the run, entirely in-process.
func (e *engine) fedRound(t int) error {
	spec := e.sc.Federation
	if e.fed == nil {
		topo := topology.Generate(workload.NewDerived(e.sc.Seed, "topology", 0, 0), topology.Config{
			Clouds: spec.Clouds, Users: 10 * spec.Clouds,
		})
		fed, err := federation.New(federation.Config{
			Topology: topo,
			Auction:  core.MSOAConfig{Options: core.Options{Parallelism: 1}},
		})
		if err != nil {
			return fmt.Errorf("chaos: federation: %w", err)
		}
		e.fed = fed
	}
	markets := make([]federation.CloudMarket, 0, spec.Clouds)
	for c := 1; c <= spec.Clouds; c++ {
		rng := workload.NewDerived(e.sc.Seed, "fed", t, c)
		ins := &core.Instance{}
		if c == spec.Clouds && e.fedRes%2 == 1 {
			// Every other federated round the last cloud is a pure bid
			// pool: zero demand, bids only available for borrowing.
			ins.Demand = nil
		} else {
			ins.Demand = []int{rng.UniformInt(1, 3), rng.UniformInt(1, 3)}
		}
		bidders := 4
		if c == 1 {
			// Cloud 1 is deliberately under-supplied so it regularly has to
			// borrow at a latency premium.
			bidders = 2
			if ins.Demand != nil {
				ins.Demand = []int{rng.UniformInt(2, 4), rng.UniformInt(2, 4)}
			}
		}
		for i := 1; i <= bidders; i++ {
			width := rng.UniformInt(1, 2)
			ins.Bids = append(ins.Bids, core.Bid{
				Bidder: 1000*c + i,
				Alt:    1,
				Price:  rng.Uniform(10, 35) * float64(width),
				Covers: rng.Subset(2, width),
				Units:  rng.UniformInt(1, 2),
			})
			ins.Bids[len(ins.Bids)-1].TrueCost = ins.Bids[len(ins.Bids)-1].Price
		}
		markets = append(markets, federation.CloudMarket{Cloud: c, Instance: ins})
	}
	res, err := e.fed.RunRound(t, markets)
	if err != nil {
		return fmt.Errorf("chaos: federated round %d: %w", t, err)
	}
	e.fedRes++
	e.aud.auditFed(t, res)
	return nil
}

// closeAgents disconnects every still-live agent.
func (e *engine) closeAgents() {
	e.mu.Lock()
	agents := make([]*platform.Agent, 0, len(e.agents))
	for _, a := range e.agents {
		agents = append(agents, a)
	}
	e.agents = map[int]*platform.Agent{}
	e.mu.Unlock()
	for _, a := range agents {
		_ = a.Close()
	}
}

// waitFor polls cond until it holds or the budget elapses.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return cond()
		}
		time.Sleep(time.Millisecond)
	}
}
