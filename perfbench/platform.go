package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/loadgen"
	"edgeauction/internal/platform"
	"edgeauction/internal/workload"
)

// platformParams sizes a platform workload: an in-process server cleared
// back to back by the benchmark (closed loop), bid on by an in-process
// loadgen fleet multiplexed over at most nproc sessions.
type platformParams struct {
	Agents  int
	Alts    int  // alternative bids per agent per round
	Dynamic bool // bids change every round
	Needy   int
	// DemandLo, DemandHi bound each needy service's per-round demand,
	// drawn from the seed.
	DemandLo, DemandHi int
	WAL                bool // write-ahead log on, fsync off
	Warmup             int  // untimed rounds before the timed window
	// Capture is how many rounds, counted from a server's first, are
	// served again with an audit sink and replayed after the timed
	// window. On the WAL workload the timed server is also snapshotted
	// every Capture rounds.
	Capture   int
	SetupReps int // set-ups (server start, fleet dial, warm-up) timed
	// MinRounds is the least number of timed rounds, enough that ten lie
	// beyond the 95th percentile.
	MinRounds int
}

// The demand ranges set the work of the settle stage: a few greedy picks
// on fan-in, so decoding 20k bids dominates, and about 120 picks, each
// with its payment replay, on settle.
var (
	faninFull = platformParams{
		Agents: 20000, Alts: 1, Needy: 4, DemandLo: 2, DemandHi: 8,
		Warmup: 3, Capture: 8, SetupReps: 5, MinRounds: 200,
	}
	settleFull = platformParams{
		Agents: 2000, Alts: 4, Dynamic: true, Needy: 40, DemandLo: 2, DemandHi: 10,
		WAL: true, Warmup: 3, Capture: 16, SetupReps: 5, MinRounds: 200,
	}
	faninTiny = platformParams{
		Agents: 200, Alts: 1, Needy: 4, DemandLo: 2, DemandHi: 6,
		Warmup: 1, Capture: 4, SetupReps: 2, MinRounds: 1,
	}
	settleTiny = platformParams{
		Agents: 100, Alts: 4, Dynamic: true, Needy: 8, DemandLo: 2, DemandHi: 6,
		WAL: true, Warmup: 1, Capture: 4, SetupReps: 2, MinRounds: 1,
	}
)

// demand draws round t's residual demand from the seed.
func (p platformParams) demand(seed int64, t int) []int {
	rng := workload.NewDerived(seed, "perfbench/platform-demand", t, 0)
	d := make([]int, p.Needy)
	for k := range d {
		d[k] = rng.UniformInt(p.DemandLo, p.DemandHi)
	}
	return d
}

// rig is a live server with a registered fleet and, on the WAL
// workload, its log and snapshots.
type rig struct {
	srv    *platform.Server
	fleet  *loadgen.Fleet
	wal    *platform.WAL
	walDir string
	// snapDir holds the snapshots; snapRound is the latest one's round
	// and snapOffset the WAL's length when it was taken.
	snapDir    string
	snapRound  int
	snapOffset int64
	closed     bool
}

// snapshot checkpoints the server's state between rounds and notes where
// the WAL records after it begin.
func (r *rig) snapshot() error {
	round, st := r.srv.SnapshotState()
	if _, err := platform.WriteSnapshot(r.snapDir, round, st); err != nil {
		return err
	}
	fi, err := os.Stat(r.wal.Path())
	if err != nil {
		return err
	}
	r.snapRound, r.snapOffset = round, fi.Size()
	return nil
}

// close stops the fleet and the server and closes the WAL. It may be
// called more than once.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.fleet != nil {
		_ = r.fleet.Close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.wal != nil {
		_ = r.wal.Close()
	}
}

// startRig starts a server, dials the fleet over at most nproc sessions
// and waits until every agent is registered.
func startRig(p platformParams, scratch string, cfg platform.ServerConfig) (_ *rig, err error) {
	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
			_ = os.RemoveAll(r.walDir)
		}
	}()
	if p.WAL {
		if r.walDir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
			return nil, err
		}
		r.snapDir = filepath.Join(r.walDir, "snapshots")
		if err := os.Mkdir(r.snapDir, 0o755); err != nil {
			return nil, err
		}
		if r.wal, err = platform.CreateWAL(filepath.Join(r.walDir, "wal.jsonl"), false); err != nil {
			return nil, err
		}
		cfg.WAL = r.wal
	}
	cfg.BidDeadline = 60 * time.Second
	if r.srv, err = platform.NewServer("127.0.0.1:0", cfg); err != nil {
		return nil, err
	}
	sessions := runtime.NumCPU()
	if r.fleet, err = loadgen.Dial(r.srv.Addr(), loadgen.Config{
		Agents:        p.Agents,
		AgentsPerConn: (p.Agents + sessions - 1) / sessions,
		AltBids:       p.Alts,
		DynamicBids:   p.Dynamic,
	}); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for r.srv.AgentCount() < p.Agents {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d agents registered", r.srv.AgentCount(), p.Agents)
		}
		time.Sleep(time.Millisecond)
	}
	return r, nil
}

// platformPhase is one timed phase of a platform workload.
type platformPhase struct {
	phaseCommon
	replay  replayStats
	bidsPer []float64
	fleet   fleetCounts
}

type fleetCounts struct {
	bidsSent, errs, rejections int64
}

// replayStats is what the replay of the audited rounds found.
type replayStats struct {
	digest   outcomeDigest
	msoaMS   []float64
	walMS    []float64
	walBytes float64
}

// runPlatform runs one phase: set-up (server start, fleet dial and
// registration, warm-up rounds; timed several times, keeping the last
// rig), the timed window, then the output checks.
func runPlatform(p platformParams, seed int64, seconds float64, traced bool, scratch string) (*platformPhase, error) {
	ph := &platformPhase{}
	var cfg platform.ServerConfig
	if traced {
		ph.events = &eventCounter{}
		cfg.Tracer = ph.events
	}

	var r *rig
	defer func() {
		if r != nil {
			r.close()
			_ = os.RemoveAll(r.walDir)
		}
	}()
	t := 0
	round := func(timed bool) {
		t++
		demand := p.demand(seed, t)
		root := ph.spans.open(t, 0, "round")
		if timed {
			ph.clock.roundStart()
		}
		id := ph.spans.open(t, root, "platform.Server.RunRound")
		out, err := r.srv.RunRound(demand, nil)
		ph.spans.close(id)
		if timed {
			ph.clock.roundEnd()
		}
		ph.spans.close(root)
		ph.attempted++
		if err != nil {
			ph.fail("round %d: %v", t, err)
			return
		}
		ph.checkRound(p, out)
		if timed {
			ph.bidsPer = append(ph.bidsPer, float64(out.Bids))
		}
		if p.WAL && t%p.Capture == 0 {
			if err := r.snapshot(); err != nil {
				ph.fail("round %d: snapshot: %v", t, err)
			}
		}
	}
	for i := 0; i < p.SetupReps; i++ {
		if r != nil {
			r.close()
			_ = os.RemoveAll(r.walDir)
			r = nil
		}
		t = 0
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = startRig(p, scratch, cfg); err != nil {
			return nil, err
		}
		for w := 0; w < p.Warmup; w++ {
			round(false)
		}
		ph.setup = append(ph.setup, time.Since(start).Seconds())
	}

	if traced {
		ph.spans = newSpanLog()
		ph.events.reset()
	}
	timedRounds := 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ph.clock.begin()
	for timedRounds < p.MinRounds || time.Now().Before(deadline) || t < p.Capture {
		round(true)
		timedRounds++
	}
	ph.clock.end()

	_, st := r.srv.SnapshotState()
	r.close()
	ph.fleet = ph.checkFleet(r, p, t)
	if p.WAL {
		ph.checkRecover(r, st, t)
	}
	ph.checkAudited(p, seed, traced, scratch)
	return ph, nil
}

// checkAudited serves the first Capture rounds again, with the same
// demands, on a fresh server with an audit sink, and replays what it
// recorded. The timed server runs without the sink: building the records
// allocates more than the rest of a fan-in round.
func (ph *platformPhase) checkAudited(p platformParams, seed int64, traced bool, scratch string) {
	var recs []*platform.AuditRecord
	// The sink runs on the goroutine calling RunRound.
	sink := platform.NewAuditSink(func(rec *platform.AuditRecord) error {
		recs = append(recs, rec)
		return nil
	})
	r, err := startRig(p, scratch, platform.ServerConfig{Audit: sink})
	if err != nil {
		ph.fail("audited server: %v", err)
		return
	}
	for t := 1; t <= p.Capture; t++ {
		ph.attempted++
		out, err := r.srv.RunRound(p.demand(seed, t), nil)
		if err != nil {
			ph.fail("audited round %d: %v", t, err)
			continue
		}
		ph.checkRound(p, out)
	}
	r.close()
	_ = os.RemoveAll(r.walDir)
	ph.checkFleet(r, p, p.Capture)
	if len(recs) != p.Capture {
		ph.fail("audit sink recorded %d rounds, want %d", len(recs), p.Capture)
	}
	ph.replayAudited(recs, p.Warmup, traced, scratch)
}

// checkFleet checks the fleet of a closed rig, whose counters are final
// once its session loops have exited: one bid set per agent per round,
// and no errors or rejections.
func (ph *platformPhase) checkFleet(r *rig, p platformParams, rounds int) fleetCounts {
	c := fleetCounts{bidsSent: r.fleet.BidsSent(), errs: r.fleet.Errs(), rejections: r.fleet.Rejections()}
	if want := int64(rounds * p.Agents); c.bidsSent != want {
		ph.fail("fleet sent %d agent bid sets, want %d", c.bidsSent, want)
	}
	if c.errs != 0 || c.rejections != 0 {
		ph.fail("fleet saw %d errors and %d rejections", c.errs, c.rejections)
	}
	return c
}

// checkRound checks what the server returned for one round.
func (ph *platformPhase) checkRound(p platformParams, out *platform.RoundOutcome) {
	if out.Infeasible {
		ph.fail("round %d infeasible", out.T)
		return
	}
	if want := p.Agents * p.Alts; out.Bids != want {
		ph.fail("round %d gathered %d bids, want %d", out.T, out.Bids, want)
	}
	if len(out.Awards) == 0 {
		ph.fail("round %d has no awards", out.T)
	}
}

// replayAudited re-runs the audited rounds through a fresh MSOA (and,
// on the WAL workload, a fresh WAL) and checks every served outcome
// against the replay.
func (ph *platformPhase) replayAudited(recs []*platform.AuditRecord, warmup int, traced bool, scratch string) {
	m := core.NewMSOA(core.MSOAConfig{})
	var wal *platform.WAL
	var walPath string
	if traced && len(recs) > 0 && recs[0].StateHash != "" {
		f, err := os.CreateTemp(scratch, "replay-wal-")
		if err != nil {
			ph.fail("replay WAL: %v", err)
			return
		}
		walPath = f.Name()
		f.Close()
		defer os.Remove(walPath)
		if wal, err = platform.CreateWAL(walPath, false); err != nil {
			ph.fail("replay WAL: %v", err)
			return
		}
	}
	ph.replay.digest = newDigest()
	for _, rec := range recs {
		// Warm-up rounds are replayed but not timed, like the live ones.
		timed := traced && rec.T > warmup
		root := ph.spans.open(rec.T, 0, "replay")
		ins := rec.Instance()
		id := ph.spans.open(rec.T, root, "core.MSOA.RunRound")
		start := time.Now()
		res := m.RunRound(core.Round{T: rec.T, Instance: ins})
		if timed {
			ph.replay.msoaMS = append(ph.replay.msoaMS, ms(time.Since(start)))
		}
		ph.spans.close(id)
		if wal != nil {
			id := ph.spans.open(rec.T, root, "platform.WAL.Append")
			start := time.Now()
			err := wal.Append(rec)
			if timed {
				ph.replay.walMS = append(ph.replay.walMS, ms(time.Since(start)))
			}
			ph.spans.close(id)
			if err != nil {
				ph.fail("replay WAL append: %v", err)
			}
		}
		ph.spans.close(root)

		if err := checkServed(rec, res); err != nil {
			ph.fail("round %d: %v", rec.T, err)
			continue
		}
		if rec.StateHash != "" && m.Snapshot().Hash() != rec.StateHash {
			ph.fail("round %d: replayed state hash differs from the WAL's", rec.T)
			continue
		}
		ph.replay.digest.add(rec.SocialCost, totalPayment(rec), true, len(rec.Awards))
	}
	if wal != nil {
		if err := wal.Close(); err != nil {
			ph.fail("replay WAL close: %v", err)
		}
		if fi, err := os.Stat(walPath); err == nil && len(recs) > 0 {
			ph.replay.walBytes = float64(fi.Size()) / float64(len(recs))
		}
	}
}

// checkServed checks one served round against its independent replay:
// the awards must match the replay exactly, and the served awards must be
// a feasible, individually rational outcome under the replay's scaled
// prices.
func checkServed(rec *platform.AuditRecord, res *core.RoundResult) error {
	if res.Err != nil {
		return fmt.Errorf("replay: %w", res.Err)
	}
	if rec.Infeasible {
		return fmt.Errorf("served round is infeasible")
	}
	ins := rec.Instance()
	index := make(map[[2]int]int, len(ins.Bids))
	for i, b := range ins.Bids {
		index[[2]int{b.Bidder, b.Alt}] = i
	}
	served := &core.Outcome{Payments: make(map[int]float64, len(rec.Awards))}
	for _, aw := range rec.Awards {
		i, ok := index[[2]int{aw.Bidder, aw.Alt}]
		if !ok {
			return fmt.Errorf("award to unknown bid (%d, %d)", aw.Bidder, aw.Alt)
		}
		served.Winners = append(served.Winners, i)
		served.Payments[i] = aw.Payment
	}
	if err := core.VerifyFeasible(ins, served); err != nil {
		return err
	}
	if err := core.VerifyIndividualRationality(ins, served, res.Scaled); err != nil {
		return err
	}
	want := res.Outcome
	if len(want.Winners) != len(served.Winners) || want.SocialCost != rec.SocialCost {
		return fmt.Errorf("served %d awards at cost %v, replay %d at %v",
			len(served.Winners), rec.SocialCost, len(want.Winners), want.SocialCost)
	}
	for k, w := range want.Winners {
		if served.Winners[k] != w || served.Payments[w] != want.Payments[w] {
			return fmt.Errorf("award %d differs from the replay", k)
		}
	}
	return nil
}

// checkRecover recovers the server's state the way a restarted platform
// would, from the latest snapshot plus the WAL records after it, and
// compares it with the state the server ended in. Replaying only the
// suffix keeps the check's memory bounded however long the run.
func (ph *platformPhase) checkRecover(r *rig, st *core.MSOAState, rounds int) {
	suffix := filepath.Join(r.walDir, "suffix.jsonl")
	if err := copyFrom(r.wal.Path(), suffix, r.snapOffset); err != nil {
		ph.fail("WAL suffix: %v", err)
		return
	}
	rs, err := platform.Recover(suffix, r.snapDir, core.MSOAConfig{})
	switch {
	case err != nil:
		ph.fail("recover WAL: %v", err)
	case st == nil:
		ph.fail("server has no state to compare")
	case rs.SnapshotRound != r.snapRound || rs.NextRound != rounds+1:
		ph.fail("recovered from snapshot %d to round %d, want %d to %d", rs.SnapshotRound, rs.NextRound, r.snapRound, rounds+1)
	case rs.Hash != st.Hash():
		ph.fail("recovered state hash %s, server ended at %s", rs.Hash, st.Hash())
	}
}

// copyFrom copies src from byte offset on into dst.
func copyFrom(src, dst string, offset int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if _, err := in.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (ph *platformPhase) perLayer(vals map[string]float64) {
	n := float64(ph.clock.rounds())
	gather := mean(ph.events.stages.get("gather"))
	settle := mean(ph.events.stages.get("settle"))
	msoa := mean(ph.replay.msoaMS)
	wal := mean(ph.replay.walMS)
	vals["core.msoa_round_ms"] = msoa
	vals["core.greedy_picks_per_round"] = float64(ph.events.picks.Load()) / n
	vals["core.payment_replays_per_round"] = float64(ph.events.replays.Load()) / n
	vals["platform.gather_ms"] = gather
	vals["platform.bids_per_round"] = mean(ph.bidsPer)
	vals["platform.settle_ms"] = settle
	vals["platform.wal_append_ms"] = wal
	vals["platform.wal_bytes_per_round"] = ph.replay.walBytes
	vals["platform.settle_other_ms"] = settle - msoa - wal
	vals["loadgen.bids_sent"] = float64(ph.fleet.bidsSent)
	vals["loadgen.errs"] = float64(ph.fleet.errs)
	vals["loadgen.rejections"] = float64(ph.fleet.rejections)
}

func totalPayment(rec *platform.AuditRecord) float64 {
	sum := 0.0
	for _, aw := range rec.Awards {
		sum += aw.Payment
	}
	return sum
}

func (ph *platformPhase) digestLine() string {
	d := ph.replay.digest
	return fmt.Sprintf("rounds=%d social_cost_sum=%.6f payment_sum=%.6f exact=%d awards=%d sha256=%s",
		d.Rounds, d.Cost, d.Second, d.Exact, d.Count, d.sum())
}
