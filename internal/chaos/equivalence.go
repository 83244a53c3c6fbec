package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
)

// Loop is how a pass drives the scenario's rounds.
type Loop int

const (
	// LoopSerial calls RunRound once per round. The baseline runs it.
	LoopSerial Loop = iota
	// LoopPipelined clears every round through platform.RunPipelined, so
	// round t settles while round t+1 gathers.
	LoopPipelined
	// LoopCrash runs rounds serially, kills the platform once at each of
	// the scenario's PlatformCrashes, and restarts it from
	// platform.Recover (latest snapshot + WAL-suffix replay).
	LoopCrash
)

// Variant is one way of executing a scenario whose durable record must be
// byte-identical to the serial, crash-free baseline's.
type Variant struct {
	// Name labels the variant in results and logs and names its working
	// files (<Name>.wal, <Name>.snapshots/) under Env.Dir; the baseline's
	// are baseline.wal and baseline.snapshots/.
	Name string
	Loop Loop
	// SnapshotEvery checkpoints the pass every N rounds, so a LoopCrash
	// recovery replays a WAL suffix rather than the whole log; 0 disables.
	SnapshotEvery int
	// Configure, when non-nil, sets ServerConfig fields on top of the
	// baseline's before every server start of the pass.
	Configure func(*platform.ServerConfig)
}

// Env is where and how Equivalent runs its passes.
type Env struct {
	// Dir holds every pass's WAL and snapshot directory. Each pass deletes
	// its own files there before it starts, so a reused Dir cannot leak an
	// earlier run into this one. Empty means a temp dir removed on return.
	Dir string
	// Fsync forces every pass's WAL to stable storage on each append.
	Fsync bool
	// Logger receives operational progress; nil discards it.
	Logger *log.Logger
}

// Verdict is one pass's outcome and its comparison with the baseline.
type Verdict struct {
	Name string
	// Hash fingerprints the final mechanism state (core.MSOAState.Hash).
	Hash    string
	Summary *core.OnlineSummary
	// WALMatch reports that the pass logged exactly the baseline's WAL
	// bytes: every round once, in order, with the same outcome.
	WALMatch bool
	// Match is the verdict: WAL bytes, state hash and summary all agree.
	Match bool
	// Crashes counts scripted kills that fired; Recoveries counts
	// restarts (equal unless the last round crashed after its WAL
	// append); Replayed totals WAL records re-run across recoveries;
	// Snapshots counts checkpoints written.
	Crashes, Recoveries, Replayed, Snapshots int
}

// EquivalenceResult is the outcome of one Equivalent call.
type EquivalenceResult struct {
	Scenario string
	Seed     int64
	Rounds   int
	Baseline Verdict
	Variants []Verdict
	// Match reports that every variant matched the baseline.
	Match bool
}

// ScenarioVariants returns the variants a comparison scenario gates:
// LoopCrash (checkpointing every snapshotEvery rounds) when it scripts
// PlatformCrashes, LoopPipelined when it is Pipelined, and on every
// comparison scenario a pass with a tracer attached and one with payment
// parallelism 4 — observing and parallelising must not change outcomes.
func ScenarioVariants(sc *Scenario, snapshotEvery int) []Variant {
	var vs []Variant
	if len(sc.PlatformCrashes) > 0 {
		vs = append(vs, Variant{Name: "crash", Loop: LoopCrash, SnapshotEvery: snapshotEvery})
	}
	if sc.Pipelined {
		vs = append(vs, Variant{Name: "pipelined", Loop: LoopPipelined, Configure: func(c *platform.ServerConfig) {
			// A real overlap window, so settle t genuinely overlaps the
			// ingest of round t+1's bids.
			c.PipelineYield = 500 * time.Microsecond
		}})
	}
	return append(vs,
		Variant{Name: "traced", Configure: func(c *platform.ServerConfig) { c.Tracer = &obs.Recorder{} }},
		Variant{Name: "parallel-payments", Configure: func(c *platform.ServerConfig) { c.Auction.Options.Parallelism = 4 }},
	)
}

// Equivalent runs the scenario once as the serial, crash-free baseline and
// once per variant, and compares each variant's WAL bytes, final ψ/χ state
// hash and OnlineSummary with the baseline's. Every pass drives the same
// fixed population — each declared agent connected for the whole run and
// always bidding — because the churn engine's in-flight state cannot span
// a platform restart; scenarioDemand and scenarioBids make the workload a
// pure function of the scenario, so every pass sees identical bids.
func Equivalent(sc *Scenario, env Env, variants ...Variant) (*EquivalenceResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if env.Dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-equivalence-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		env.Dir = tmp
	} else if err := os.MkdirAll(env.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("chaos: working dir: %w", err)
	}
	if env.Logger == nil {
		env.Logger = log.New(io.Discard, "", 0)
	}

	res := &EquivalenceResult{Scenario: sc.Name, Seed: sc.Seed, Rounds: sc.Rounds, Match: true}
	base, baseWAL, err := runPass(sc, env, Variant{Name: "baseline"})
	if err != nil {
		return nil, err
	}
	base.WALMatch, base.Match = true, true
	res.Baseline = *base
	for _, v := range variants {
		vd, wal, err := runPass(sc, env, v)
		if err != nil {
			return nil, err
		}
		vd.WALMatch = bytes.Equal(wal, baseWAL)
		vd.Match = vd.WALMatch && vd.Hash == base.Hash &&
			vd.Summary != nil && base.Summary != nil && *vd.Summary == *base.Summary
		res.Match = res.Match && vd.Match
		res.Variants = append(res.Variants, *vd)
	}
	return res, nil
}

// pass is one run of the scenario under a variant.
type pass struct {
	sc               *Scenario
	env              Env
	v                Variant
	walPath, snapDir string
	vd               Verdict
}

// runPass runs the scenario once under v from an empty WAL and snapshot
// directory, restarting through platform.Recover after every scripted
// crash, and returns the pass's verdict (comparison fields unset) and WAL.
func runPass(sc *Scenario, env Env, v Variant) (*Verdict, []byte, error) {
	p := &pass{sc: sc, env: env, v: v,
		walPath: filepath.Join(env.Dir, v.Name+".wal"),
		snapDir: filepath.Join(env.Dir, v.Name+".snapshots"),
		vd:      Verdict{Name: v.Name},
	}
	// CreateWAL appends and Recover loads the newest snapshot it finds, so
	// leftovers from an earlier run in this dir would leak into this one.
	if err := os.Remove(p.walPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	if err := os.RemoveAll(p.snapDir); err != nil {
		return nil, nil, err
	}

	scripted := map[CrashSpec]bool{}
	if v.Loop == LoopCrash {
		for _, c := range sc.PlatformCrashes {
			scripted[c] = true
		}
	}
	var resume *platform.RecoveredState
	for {
		cfg := platform.ServerConfig{
			BidDeadline:  time.Duration(sc.BidDeadlineMS) * time.Millisecond,
			WriteTimeout: 250 * time.Millisecond,
			Auction:      core.MSOAConfig{Mechanism: sc.MechanismSpec(), Options: core.Options{Parallelism: 1}},
			Resume:       resume,
		}
		if v.Configure != nil {
			v.Configure(&cfg)
		}
		if len(scripted) > 0 {
			// Each scripted kill fires once: the rerun of a
			// mid-gather-crashed round must not die again, just as a real
			// process death is a one-off.
			cfg.Fault.Crash = func(t int, point string) error {
				k := CrashSpec{Round: t, Point: point}
				if scripted[k] {
					delete(scripted, k)
					return platform.ErrCrashed
				}
				return nil
			}
		}
		crashed, err := p.serve(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("chaos: %s pass: %w", v.Name, err)
		}
		if crashed {
			// The process is "dead": everything in memory is gone. Rebuild
			// from the durable artifacts alone.
			rec, err := platform.Recover(p.walPath, p.snapDir, cfg.Auction)
			if err != nil {
				return nil, nil, fmt.Errorf("chaos: %s pass: %w", v.Name, err)
			}
			p.vd.Recoveries++
			p.vd.Replayed += rec.Replayed
			env.Logger.Printf("chaos: recovered: snapshot round %d, %d records replayed, resuming at round %d (state %s)",
				rec.SnapshotRound, rec.Replayed, rec.NextRound, rec.Hash[:12])
			resume = rec
			if rec.NextRound <= sc.Rounds {
				continue
			}
			// The crash hit the final round after its WAL append; the
			// recovered state IS the pass result.
			p.vd.Hash = rec.Hash
			sum := rec.State.Summary
			p.vd.Summary = &sum
		}
		wal, err := os.ReadFile(p.walPath)
		if err != nil {
			return nil, nil, err
		}
		return &p.vd, wal, nil
	}
}

// serve starts one platform process, clears rounds from cfg.Resume's next
// round (1 without one) to the last, and tears the process down again. It
// records the final state when the run finishes and reports whether a
// scripted crash ended it early.
func (p *pass) serve(cfg platform.ServerConfig) (crashed bool, err error) {
	sc, first := p.sc, 1
	if cfg.Resume != nil {
		first = cfg.Resume.NextRound
	}
	p.env.Logger.Printf("chaos: %s pass: rounds %d-%d over %d agents", p.v.Name, first, sc.Rounds, len(sc.Agents))
	wal, err := platform.CreateWAL(p.walPath, p.env.Fsync)
	if err != nil {
		return false, err
	}
	defer wal.Close()
	cfg.WAL = wal
	srv, err := platform.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		return false, err
	}
	defer srv.Close()
	agents, err := dialAll(srv, sc)
	if err != nil {
		return false, err
	}
	defer func() {
		for _, ag := range agents {
			_ = ag.Close()
		}
	}()

	if p.v.Loop == LoopPipelined {
		err = srv.RunPipelined(context.Background(), sc.Rounds-first+1,
			func(t int) ([]int, []int) { return scenarioDemand(sc, t), nil }, nil)
		if err != nil {
			return false, err
		}
	} else {
		for t := first; t <= sc.Rounds; t++ {
			if _, err := srv.RunRound(scenarioDemand(sc, t), nil); err != nil {
				if errors.Is(err, platform.ErrCrashed) {
					p.env.Logger.Printf("chaos: %v", err)
					p.vd.Crashes++
					return true, nil
				}
				return false, fmt.Errorf("round %d: %w", t, err)
			}
			if p.v.SnapshotEvery > 0 && t%p.v.SnapshotEvery == 0 {
				round, st := srv.SnapshotState()
				if _, err := platform.WriteSnapshot(p.snapDir, round, st); err != nil {
					return false, err
				}
				p.vd.Snapshots++
			}
		}
	}
	_, st := srv.SnapshotState()
	if st == nil {
		st = &core.MSOAState{}
	}
	p.vd.Hash = st.Hash()
	p.vd.Summary = srv.Summary()
	return false, nil
}

// dialAll connects one always-bidding agent per scenario spec and waits
// until the platform's registration table sees them all.
func dialAll(srv *platform.Server, sc *Scenario) ([]*platform.Agent, error) {
	agents := make([]*platform.Agent, 0, len(sc.Agents))
	for _, spec := range sc.Agents {
		spec := spec
		ag, err := platform.Dial(srv.Addr(), platform.AgentConfig{
			ID: spec.ID, Capacity: spec.Capacity,
			Policy: func(msg *platform.AnnounceMsg) []platform.WireBid {
				return scenarioBids(sc, spec, msg.T, len(msg.Demand))
			},
			DialTimeout: 2 * time.Second, WriteTimeout: 250 * time.Millisecond,
		})
		if err != nil {
			for _, a := range agents {
				_ = a.Close()
			}
			return nil, fmt.Errorf("chaos: agent %d join: %w", spec.ID, err)
		}
		agents = append(agents, ag)
	}
	if !waitFor(2*time.Second, func() bool { return srv.AgentCount() == len(agents) }) {
		for _, a := range agents {
			_ = a.Close()
		}
		return nil, fmt.Errorf("chaos: server sees %d agents, want %d", srv.AgentCount(), len(agents))
	}
	return agents, nil
}
