// Package loadgen drives edge-cloud-scale synthetic agent fleets
// against a platform server for load benchmarking. A Fleet multiplexes
// many agents over few TCP sessions (HelloMsg.Count registers a
// contiguous id range per connection; BidSubmitMsg.Multi batches the
// whole range's round answers into one write), so 100k concurrent
// agents fit comfortably under ordinary file-descriptor limits while
// still exercising the server's full decode/ingest path per agent.
//
// Fleet bidding is deterministic: every agent bids every round with a
// price that is a pure function of (agent id, round), so a serial and a
// pipelined server driven by identical fleets gather identical
// instances.
package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgeauction/internal/platform"
)

// Config parameterizes a Fleet.
type Config struct {
	// Agents is the total number of agents (required, > 0).
	Agents int
	// AgentsPerConn is how many agents share one multiplexed session;
	// 0 means DefaultAgentsPerConn.
	AgentsPerConn int
	// FirstID is the first agent id; 0 means 1.
	FirstID int
	// Capacity is each agent's lifetime sharing capacity (0 unlimited).
	Capacity int
	// ThinkTime is the simulated per-session decision latency between
	// receiving an announce and submitting the batch of bids. It models
	// the time real microservices spend computing bids, which is exactly
	// the window a pipelined server hides its settle phase in.
	ThinkTime time.Duration
	// AltBids is the number of alternative bids per agent per round;
	// 0 means 1.
	AltBids int
	// DynamicBids makes every agent's bid a function of the round number
	// as well as its id, forcing a fresh JSON encode per session per
	// round. The default (false) varies bids per agent but keeps them
	// stable across rounds, so each session encodes its batch once and
	// re-sends the bytes with only the round tag patched — the fleet then
	// costs the benchmark core almost nothing, like a real remote fleet
	// would.
	DynamicBids bool
	// DialTimeout bounds each session's connection attempt (0 = 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds each session's sends (0 = 5s).
	WriteTimeout time.Duration
}

// DefaultAgentsPerConn is the session multiplexing factor when
// Config.AgentsPerConn is zero: 100k agents ≈ 500 sockets.
const DefaultAgentsPerConn = 200

func (c Config) agentsPerConn() int {
	if c.AgentsPerConn <= 0 {
		return DefaultAgentsPerConn
	}
	return c.AgentsPerConn
}

func (c Config) firstID() int {
	if c.FirstID <= 0 {
		return 1
	}
	return c.FirstID
}

func (c Config) altBids() int {
	if c.AltBids <= 0 {
		return 1
	}
	return c.AltBids
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout == 0 {
		return 5 * time.Second
	}
	return c.DialTimeout
}

func (c Config) writeTimeout() time.Duration {
	if c.WriteTimeout == 0 {
		return 5 * time.Second
	}
	return c.WriteTimeout
}

// Fleet is a set of multiplexed load-generator sessions.
type Fleet struct {
	cfg      Config
	sessions []*fleetSession

	bidsSent   atomic.Int64
	awards     atomic.Int64
	rejections atomic.Int64
	rounds     atomic.Int64
	errs       atomic.Int64

	wg sync.WaitGroup
}

// Dial connects a fleet to the platform at addr: it opens
// ceil(Agents/AgentsPerConn) sessions, registers each id range, and
// starts the per-session bid loops. Close the fleet to disconnect.
func Dial(addr string, cfg Config) (*Fleet, error) {
	if cfg.Agents <= 0 {
		return nil, fmt.Errorf("loadgen: Agents must be positive, got %d", cfg.Agents)
	}
	f := &Fleet{cfg: cfg}
	per := cfg.agentsPerConn()
	for first := cfg.firstID(); first < cfg.firstID()+cfg.Agents; first += per {
		count := per
		if rem := cfg.firstID() + cfg.Agents - first; rem < count {
			count = rem
		}
		fs, err := f.dialSession(addr, first, count)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		f.sessions = append(f.sessions, fs)
	}
	for _, fs := range f.sessions {
		f.wg.Add(1)
		go func(fs *fleetSession) {
			defer f.wg.Done()
			fs.loop()
		}(fs)
	}
	return f, nil
}

// Sessions returns the number of TCP connections carrying the fleet.
func (f *Fleet) Sessions() int { return len(f.sessions) }

// BidsSent returns the total bid messages submitted.
func (f *Fleet) BidsSent() int64 { return f.bidsSent.Load() }

// Awards returns the total awards observed across all agents.
func (f *Fleet) Awards() int64 { return f.awards.Load() }

// Rejections returns the admission-control sheds observed.
func (f *Fleet) Rejections() int64 { return f.rejections.Load() }

// RoundsSeen returns the total announces observed (summed per session).
func (f *Fleet) RoundsSeen() int64 { return f.rounds.Load() }

// Errs returns the number of session errors observed.
func (f *Fleet) Errs() int64 { return f.errs.Load() }

// Close disconnects every session and waits for their loops to exit.
func (f *Fleet) Close() error {
	for _, fs := range f.sessions {
		_ = fs.raw.Close()
	}
	f.wg.Wait()
	return nil
}

// fleetSession is one multiplexed connection carrying agents
// first..first+count-1. It speaks the platform's JSON-line protocol
// directly so the hot path can reuse one encoder buffer per session.
type fleetSession struct {
	f     *Fleet
	raw   net.Conn
	r     *bufio.Reader
	enc   []byte // reusable encode buffer for submissions
	first int
	count int

	// The reusable batch: one entry per agent, bids backed by one flat
	// slice so steady-state rounds allocate (almost) nothing.
	multi []platform.AgentBids
	bids  []platform.WireBid

	// Static-bid fast path: the session's batch pre-encoded once, split
	// around the round tag so each round is a byte splice, not a marshal.
	staticHead []byte
	staticTail []byte
	staticD    int // demand length the static batch was built for
}

// send writes env as one JSON line, bounded by the fleet write timeout.
func (fs *fleetSession) send(env *platform.Envelope) error {
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("loadgen: marshal %s: %w", env.Type, err)
	}
	fs.enc = append(append(fs.enc[:0], data...), '\n')
	if err := fs.raw.SetWriteDeadline(time.Now().Add(fs.f.cfg.writeTimeout())); err != nil {
		return err
	}
	_, err = fs.raw.Write(fs.enc)
	return err
}

// recv reads one envelope; timeout 0 means no deadline.
func (fs *fleetSession) recv(timeout time.Duration) (*platform.Envelope, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := fs.raw.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	line, err := fs.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var env platform.Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("loadgen: bad JSON from platform: %w", err)
	}
	return &env, nil
}

func (f *Fleet) dialSession(addr string, first, count int) (*fleetSession, error) {
	raw, err := net.DialTimeout("tcp", addr, f.cfg.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial %s: %w", addr, err)
	}
	fs := &fleetSession{f: f, raw: raw, r: bufio.NewReader(raw), first: first, count: count}
	hello := &platform.Envelope{Type: platform.TypeHello, Hello: &platform.HelloMsg{
		AgentID: first, Capacity: f.cfg.Capacity, Count: count,
	}}
	if err := fs.send(hello); err != nil {
		_ = raw.Close()
		return nil, err
	}
	env, err := fs.recv(f.cfg.dialTimeout())
	if err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("loadgen: session %d registration: %w", first, err)
	}
	switch env.Type {
	case platform.TypeWelcome:
	case platform.TypeReject:
		_ = raw.Close()
		code := ""
		if env.Reject != nil {
			code = env.Reject.Code
		}
		return nil, fmt.Errorf("loadgen: session %d rejected: %s", first, code)
	default:
		_ = raw.Close()
		return nil, fmt.Errorf("loadgen: session %d: expected welcome, got %q", first, env.Type)
	}
	return fs, nil
}

func (fs *fleetSession) loop() {
	for {
		env, err := fs.recv(0)
		if err != nil {
			return // connection closed (fleet Close or server gone)
		}
		switch env.Type {
		case platform.TypeAnnounce:
			fs.onAnnounce(env.Announce)
		case platform.TypeResult:
			if env.Result != nil {
				for _, aw := range env.Result.Awards {
					if aw.Bidder >= fs.first && aw.Bidder < fs.first+fs.count {
						fs.f.awards.Add(1)
					}
				}
			}
		case platform.TypeReject:
			fs.f.rejections.Add(1)
		case platform.TypeShutdown:
			return
		case platform.TypeError:
			fs.f.errs.Add(1)
			return
		}
	}
}

// onAnnounce builds and submits the whole session's round answer as one
// Multi batch after the configured think time. The batch is counted in
// bidsSent BEFORE the write: once the bytes are out the server may clear
// the round, and a reader of BidsSent after the round must see them.
// A failed write rolls the count back.
func (fs *fleetSession) onAnnounce(msg *platform.AnnounceMsg) {
	if msg == nil || len(msg.Demand) == 0 {
		return
	}
	fs.f.rounds.Add(1)
	if fs.f.cfg.ThinkTime > 0 {
		time.Sleep(fs.f.cfg.ThinkTime)
	}
	var err error
	var n int64
	if !fs.f.cfg.DynamicBids {
		n = int64(fs.count)
		fs.f.bidsSent.Add(n)
		err = fs.sendStatic(msg)
	} else {
		fs.buildBatch(msg.T, len(msg.Demand))
		n = int64(len(fs.multi))
		fs.f.bidsSent.Add(n)
		err = fs.send(&platform.Envelope{Type: platform.TypeBid, Bid: &platform.BidSubmitMsg{T: msg.T, Multi: fs.multi}})
	}
	if err != nil {
		fs.f.bidsSent.Add(-n)
		fs.f.errs.Add(1)
	}
}

// buildBatch fills fs.multi with one deterministic bid set per agent:
// price, covers and units are pure functions of (id, round, alt), so
// identically-driven serial and pipelined servers gather identical
// instances. Round variation is suppressed (t forced to 0) on the
// static path.
func (fs *fleetSession) buildBatch(t, d int) {
	alts := fs.f.cfg.altBids()
	need := fs.count * alts
	if cap(fs.bids) < need {
		fs.bids = make([]platform.WireBid, 0, need)
		fs.multi = make([]platform.AgentBids, 0, fs.count)
	}
	fs.bids = fs.bids[:0]
	fs.multi = fs.multi[:0]
	for i := 0; i < fs.count; i++ {
		id := fs.first + i
		start := len(fs.bids)
		for alt := 0; alt < alts; alt++ {
			k := (id + alt) % d
			covers := []int{k}
			if d > 1 && (id+t)%3 == 0 {
				covers = append(covers, (k+1)%d)
			}
			fs.bids = append(fs.bids, platform.WireBid{
				Alt:    alt,
				Price:  float64(5 + (id*7+t*13+alt*29)%60),
				Covers: covers,
				Units:  1 + (id+t)%3,
			})
		}
		fs.multi = append(fs.multi, platform.AgentBids{Agent: id, Bids: fs.bids[start:len(fs.bids):len(fs.bids)]})
	}
}

// sendStatic submits the pre-encoded batch with only the round tag
// spliced in, re-encoding only when the demand shape changes.
func (fs *fleetSession) sendStatic(msg *platform.AnnounceMsg) error {
	d := len(msg.Demand)
	if fs.staticHead == nil || fs.staticD != d {
		fs.buildBatch(0, d)
		body, err := json.Marshal(&platform.BidSubmitMsg{T: 0, Multi: fs.multi})
		if err != nil {
			return fmt.Errorf("loadgen: marshal static batch: %w", err)
		}
		const tPrefix = `{"t":0`
		if string(body[:len(tPrefix)]) != tPrefix {
			return fmt.Errorf("loadgen: unexpected static batch layout %q", body[:len(tPrefix)])
		}
		fs.staticHead = []byte(`{"type":"bid","bid":{"t":`)
		fs.staticTail = append(body[len(tPrefix):], '}', '\n')
		fs.staticD = d
	}
	fs.enc = append(fs.enc[:0], fs.staticHead...)
	fs.enc = strconv.AppendInt(fs.enc, int64(msg.T), 10)
	fs.enc = append(fs.enc, fs.staticTail...)
	if err := fs.raw.SetWriteDeadline(time.Now().Add(fs.f.cfg.writeTimeout())); err != nil {
		return err
	}
	_, err := fs.raw.Write(fs.enc)
	return err
}
