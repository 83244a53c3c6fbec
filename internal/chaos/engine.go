package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/federation"
	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
	"edgeauction/internal/topology"
	"edgeauction/internal/workload"
)

// instruction tells an agent's bid policy what to do for one round.
type instruction struct {
	t      int
	mode   string
	bids   []platform.WireBid
	staleT int
	stale  []platform.WireBid
}

// engine is one pass: it drives the scenario's agents against a real
// platform.Server, logging every round to a WAL, across every platform
// restart the variant scripts. On a serial pass the auditor watches.
type engine struct {
	Verdict
	sc  *Scenario
	env Env
	v   Variant
	srv *platform.Server
	aud *auditor // nil on pipelined and crash passes
	log *log.Logger

	walPath, snapDir string
	wal              []byte       // the finished pass's WAL
	audit            bytes.Buffer // the auditor's JSONL

	specs map[int]AgentSpec

	mu           sync.Mutex
	agents       map[int]*platform.Agent
	inst         map[int]instruction
	slow         map[int]bool
	pendingStale map[int]instruction
	awayUntil    map[int]int
	left         map[int]bool

	fed *federation.Federation
}

// runEngine runs the scenario once under v from an empty WAL and snapshot
// directory, restarting through platform.Recover after every scripted
// crash, with env's auditor settings. Every random draw derives from
// Scenario.Seed via workload.DeriveSeed sub-streams, so the WAL and the
// audit log are pure functions of the scenario.
func runEngine(sc *Scenario, env Env, v Variant) (*engine, error) {
	e := &engine{
		Verdict:      Verdict{Name: v.Name, Actions: map[string]int{}},
		sc:           sc,
		env:          env,
		v:            v,
		log:          env.Logger,
		walPath:      filepath.Join(env.Dir, v.Name+".wal"),
		snapDir:      filepath.Join(env.Dir, v.Name+".snapshots"),
		specs:        map[int]AgentSpec{},
		agents:       map[int]*platform.Agent{},
		inst:         map[int]instruction{},
		slow:         map[int]bool{},
		pendingStale: map[int]instruction{},
		awayUntil:    map[int]int{},
		left:         map[int]bool{},
	}
	for _, a := range sc.Agents {
		e.specs[a.ID] = a
	}
	// CreateWAL appends and Recover loads the newest snapshot it finds, so
	// leftovers from an earlier run in this dir would leak into this one.
	if err := os.Remove(e.walPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if err := os.RemoveAll(e.snapDir); err != nil {
		return nil, err
	}

	cfg := platform.ServerConfig{
		BidDeadline:  time.Duration(sc.BidDeadlineMS) * time.Millisecond,
		WriteTimeout: 250 * time.Millisecond,
		Auction:      core.MSOAConfig{Mechanism: sc.MechanismSpec(), Options: core.Options{Parallelism: 1}},
		Fault:        platform.FaultInjection{SendFault: e.sendFault},
	}
	var sink *platform.Audit
	if v.Loop == LoopSerial {
		auditLog := io.Writer(&e.audit)
		if env.AuditLog != nil {
			auditLog = io.MultiWriter(&e.audit, env.AuditLog)
		}
		maxViol := env.MaxViolations
		if maxViol == 0 {
			maxViol = 1
		}
		e.aud = newAuditor(sc, auditLog, env.DumpDir, maxViol, e.log)
		sink = platform.NewAuditSink(e.aud.auditRound)
		cfg.Audit = sink
		cfg.Tracer = obs.NewRoundSink(e.aud.storeBatch)
		if env.TraceLog != nil {
			cfg.Tracer = obs.NewMulti(cfg.Tracer, obs.NewJSONL(env.TraceLog))
		}
	}
	if env.BreakPayments {
		cfg.Fault.CorruptPayment = func(t int, award platform.WireAward) float64 {
			return award.Payment * 0.9 // the platform skims 10% off every award
		}
	}
	if v.Configure != nil {
		v.Configure(&cfg)
	}
	if cfg.Audit != sink {
		e.aud = nil
	}
	if err := e.run(cfg); err != nil {
		return nil, fmt.Errorf("chaos: %s pass: %w", v.Name, err)
	}
	if e.aud != nil {
		a := e.aud
		e.Audited = true
		e.Rounds, e.Infeasible, e.Checks = a.rounds, a.infeasible, a.checks
		e.Violations, e.Dumps = a.violations, a.dumps
	}
	return e, nil
}

// run clears the pass's rounds, one platform process at a time: each
// scripted crash (LoopCrash only; each fires once, as a real process
// death is a one-off) ends a process, and the next one resumes from
// platform.Recover with the agents that were connected redialled.
func (e *engine) run(cfg platform.ServerConfig) error {
	sc := e.sc
	scripted := map[CrashSpec]bool{}
	if e.v.Loop == LoopCrash {
		for _, c := range sc.PlatformCrashes {
			scripted[c] = true
		}
		cfg.Fault.Crash = func(t int, point string) error {
			k := CrashSpec{Round: t, Point: point}
			if scripted[k] {
				delete(scripted, k)
				return platform.ErrCrashed
			}
			return nil
		}
	}
	first := 1
	var redial []int
	for {
		wal, err := platform.CreateWAL(e.walPath, e.env.Fsync)
		if err != nil {
			return err
		}
		cfg.WAL = wal
		e.log.Printf("chaos: %s pass: rounds %d-%d over %d agents", e.v.Name, first, sc.Rounds, len(sc.Agents))
		crashed, err := e.process(cfg, first, redial)
		redial = e.liveIDs()
		e.closeAgents()
		if e.srv != nil {
			_ = e.srv.Close()
		}
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if !crashed {
			break
		}
		// The process is "dead": everything in memory is gone. Rebuild
		// from the durable artifacts alone.
		rec, err := platform.Recover(e.walPath, e.snapDir, cfg.Auction)
		if err != nil {
			return err
		}
		e.Recoveries++
		e.Replayed += rec.Replayed
		e.log.Printf("chaos: recovered: snapshot round %d, %d records replayed, resuming at round %d (state %s)",
			rec.SnapshotRound, rec.Replayed, rec.NextRound, rec.Hash[:12])
		if first = rec.NextRound; first > sc.Rounds {
			// The crash hit the final round after its WAL append; the
			// recovered state IS the pass result.
			e.Hash = rec.Hash
			sum := rec.State.Summary
			e.Summary = &sum
			break
		}
		cfg.Resume = rec
	}
	wal, err := os.ReadFile(e.walPath)
	e.wal = wal
	return err
}

// process starts one platform process, reconnects the redial agents, and
// clears rounds from first to the last (or to the violation budget). It
// records the final state when the rounds run out and reports whether a
// scripted crash ended it early. The caller tears the process down.
func (e *engine) process(cfg platform.ServerConfig, first int, redial []int) (crashed bool, err error) {
	sc := e.sc
	if e.srv, err = platform.NewServer("127.0.0.1:0", cfg); err != nil {
		return false, err
	}
	for _, id := range redial {
		if err := e.dial(id); err != nil {
			return false, err
		}
	}
	if e.v.Loop == LoopPipelined {
		// Pipelined scenarios hold a fixed population (Validate), so the
		// whole roster joins before the first announce.
		if err := e.preRound(first); err != nil {
			return false, err
		}
		err := e.srv.RunPipelined(context.Background(), sc.Rounds-first+1,
			func(t int) ([]int, []int) { return e.prepare(t), nil }, nil)
		if err != nil {
			return false, err
		}
	} else if crashed, err := e.serialRounds(first); crashed || err != nil {
		return crashed, err
	}
	_, st := e.srv.SnapshotState()
	if st == nil {
		st = &core.MSOAState{}
	}
	e.Hash = st.Hash()
	e.Summary = e.srv.Summary()
	return false, nil
}

// serialRounds clears rounds first..last one RunRound at a time, with the
// churn, snapshot and federation steps between them, and stops early at
// a scripted crash or the auditor's violation budget.
func (e *engine) serialRounds(first int) (crashed bool, err error) {
	sc := e.sc
	for t := first; t <= sc.Rounds; t++ {
		if err := e.preRound(t); err != nil {
			return false, err
		}
		if _, err := e.srv.RunRound(e.prepare(t), nil); err != nil {
			if errors.Is(err, platform.ErrCrashed) {
				e.log.Printf("chaos: %v", err)
				e.Crashes++
				return true, nil
			}
			return false, fmt.Errorf("round %d: %w", t, err)
		}
		e.postRound(t)
		if e.v.SnapshotEvery > 0 && t%e.v.SnapshotEvery == 0 {
			round, st := e.srv.SnapshotState()
			if _, err := platform.WriteSnapshot(e.snapDir, round, st); err != nil {
				return false, err
			}
			e.Snapshots++
		}
		if sc.Federation != nil && t%sc.Federation.Every == 0 {
			if err := e.fedRound(t); err != nil {
				return false, err
			}
		}
		if e.aud != nil && e.aud.stop() {
			e.log.Printf("chaos: stopping after round %d: violation budget (%d) exhausted", t, e.aud.maxViol)
			break
		}
	}
	return false, nil
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
	demand := scenarioDemand(e.sc, t)

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
		bids := scenarioBids(e.sc, e.specs[id], t, len(demand))
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
		e.Actions[mode]++
	}
	return demand
}

// scenarioDemand is round t's residual demand as a pure function of the
// scenario, with periodic and scripted spikes applied — so a restarted
// platform sees exactly the demand the dead one announced.
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
		if c == spec.Clouds && e.FedRounds%2 == 1 {
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
	e.FedRounds++
	if e.aud != nil {
		e.aud.auditFed(t, res)
	}
	return nil
}

// liveIDs lists the connected agents in id order.
func (e *engine) liveIDs() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sortedKeys(e.agents)
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
