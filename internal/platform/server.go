package platform

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
)

// Default timeouts applied when the corresponding ServerConfig field is
// left at its zero value. Applying a default emits an obs.ConfigDefault
// event when a Tracer is configured.
const (
	// DefaultBidDeadline is how long a round stays open for bids when
	// ServerConfig.BidDeadline is zero.
	DefaultBidDeadline = 500 * time.Millisecond
	// DefaultWriteTimeout bounds individual sends when
	// ServerConfig.WriteTimeout is zero.
	DefaultWriteTimeout = 2 * time.Second
)

// ingestShards is the needy-partition shard count of each round's
// IngestBuffer (see core.NewIngestBuffer): bids append into the shard of
// the first needy microservice they cover, keeping each shard's cover
// arena contiguous for its partition.
const ingestShards = 8

// broadcastWorkers bounds the announce/result fan-out concurrency: up to
// this many sessions are written in parallel, each still under the
// per-session write timeout.
const broadcastWorkers = 8

// ServerConfig parameterizes the auctioneer daemon.
type ServerConfig struct {
	// BidDeadline is how long a round stays open for bids; zero means
	// DefaultBidDeadline (500ms).
	BidDeadline time.Duration
	// WriteTimeout bounds individual sends; zero means DefaultWriteTimeout
	// (2s).
	WriteTimeout time.Duration
	// Auction configures the embedded online mechanism. Capacity and
	// Windows are learned from agent registrations and merged in.
	Auction core.MSOAConfig
	// Logger receives operational messages; nil discards them.
	Logger *log.Logger
	// Audit, when non-nil, receives one JSON line per cleared round with
	// the full collected instance and awards (see Audit/ReadAudit).
	Audit *Audit
	// WAL, when non-nil, makes the platform durable: each round's record —
	// extended with the capacity/window maps in force and the post-round
	// state hash — is appended and flushed BEFORE awards are announced to
	// bidders, so a crash can never lose a round the outside world saw.
	// Recover replays this log back into a RecoveredState.
	WAL *WAL
	// Resume, when non-nil, seeds the server from a recovered state: the
	// round counter continues at Resume.NextRound and the mechanism is
	// restored (core.RestoreMSOA) with Resume.State instead of starting
	// fresh.
	Resume *RecoveredState
	// Tracer receives platform lifecycle events: round open/close/abort,
	// agent join/drop/timeout with cause strings, per-agent bid receipt
	// with round-trip latency, and config-default notices. Nil disables
	// tracing. If Auction.Options.Tracer is nil it inherits this tracer,
	// so the mechanism's greedy-pick/payment/ψ events land in the same
	// stream. Tracers must be safe for concurrent use.
	Tracer obs.Tracer
	// Fault injects deterministic failures into the send and award paths
	// for tests and the chaos harness; the zero value disables injection.
	Fault FaultInjection
	// Admission configures listener-edge admission control (token-bucket
	// bid rate limits, flapping-agent circuit breaker, bounded per-round
	// ingest). The zero value disables every check.
	Admission AdmissionConfig
	// PipelineYield, when positive, parks RunPipelined between announcing
	// round t+1 and settling round t. On a single-P runtime (or a
	// single-core box) with co-located agents — tests, benchmarks, the
	// one-host demo topology — the solver otherwise occupies the
	// processor before the agents' read loops ever observe the announce,
	// so their think time starts after the settle instead of covering it
	// and the overlap the pipeline exists for never happens. Remote-agent
	// deployments do not need it; zero disables. Serial RunRound ignores
	// it.
	PipelineYield time.Duration
}

func (c ServerConfig) bidDeadline() time.Duration {
	if c.BidDeadline == 0 {
		return DefaultBidDeadline
	}
	return c.BidDeadline
}

func (c ServerConfig) writeTimeout() time.Duration {
	if c.WriteTimeout == 0 {
		return DefaultWriteTimeout
	}
	return c.WriteTimeout
}

// Server is the edge platform: it accepts agent connections and clears one
// auction round per RunRound call (or many overlapped rounds per
// RunPipelined call).
type Server struct {
	cfg      ServerConfig
	listener net.Listener
	logger   *log.Logger
	tracer   obs.Tracer
	metrics  *obs.Registry
	adm      *admissionState

	// hot-path instruments, resolved once instead of per bid.
	mBids    *obs.Counter
	mDrops   *obs.Counter
	mRejects *obs.Counter
	mBidRTT  *obs.LatencyHistogram

	mu       sync.Mutex
	agents   map[int]*agentConn
	round    int
	closed   bool
	msoa     *core.MSOA
	auction  core.MSOAConfig // effective config after lazy-init merges
	capacity map[int]int
	windows  map[int]core.BidderWindow

	// roster is agents sorted by id, also guarded by mu. The next announce
	// rebuilds it only after a registration or a drop changed the map
	// (rosterStale), so a static fleet is not re-sorted every round.
	roster      []*agentConn
	rosterStale bool

	// gmu guards the gather window: the open round's state plus the
	// round-state free list. Connection read loops take it per accepted
	// submission; the round driver takes it to open/close windows.
	gmu        sync.Mutex
	gather     *roundState
	freeRounds []*roundState

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// session is one TCP connection carrying one or more registered agents
// (a multiplexed load-generator session registers the contiguous range
// first..first+count-1 via HelloMsg.Count).
type session struct {
	c     *conn
	first int
	count int
	wmu   sync.Mutex // serializes writes
	// dead flips once the session has been deregistered; the gather path
	// checks it so a dropped session's in-flight bid cannot double-count
	// against the pending adjustment.
	dead atomic.Bool
	// alts is checkSubmission's scratch, touched only by the session's
	// read loop.
	alts []int
}

func (ss *session) send(env *Envelope, timeout time.Duration) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	return ss.c.send(env, timeout)
}

func (ss *session) sendRaw(msgType string, data []byte, timeout time.Duration) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	return ss.c.sendRaw(msgType, data, timeout)
}

func (ss *session) owns(id int) bool { return id >= ss.first && id < ss.first+ss.count }

// agentConn is one registered agent (one bidder id) on a session.
type agentConn struct {
	id   int
	sess *session
}

// roundState is the per-round bookkeeping: the announced agent set, the
// gather window (pending count, answered set, shard ingest buffers) and
// the fan-out scratch. States are pooled on the server's free list so
// back-to-back rounds reuse the same allocations; in pipelined mode two
// states are live at once (round t settling, round t+1 gathering).
type roundState struct {
	t        int
	demand   []int
	needyIDs []int
	started  time.Time

	agents     []*agentConn
	sessions   []*session
	sendErrs   []error
	droppedIDs []int
	scratch    []int

	// gather window, guarded by Server.gmu while open.
	buf         *core.IngestBuffer
	answered    map[int]bool
	submits     map[int]int
	pending     int
	open        bool
	doneClosed  bool
	done        chan struct{}
	announcedAt time.Time

	ins *core.Instance
}

func (s *Server) getRoundState() *roundState {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if n := len(s.freeRounds); n > 0 {
		rs := s.freeRounds[n-1]
		s.freeRounds[n-1] = nil
		s.freeRounds = s.freeRounds[:n-1]
		return rs
	}
	return &roundState{
		buf:      core.NewIngestBuffer(ingestShards),
		answered: make(map[int]bool),
		submits:  make(map[int]int),
	}
}

// putRoundState returns a state to the free list. Callers must be done
// with every aliasing view (rs.ins bids alias rs.buf arenas).
func (s *Server) putRoundState(rs *roundState) {
	rs.t = 0
	rs.demand = nil
	rs.needyIDs = nil
	rs.done = nil
	rs.ins = nil
	s.gmu.Lock()
	s.freeRounds = append(s.freeRounds, rs)
	s.gmu.Unlock()
}

// NewServer starts listening on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("platform: listen %s: %w", addr, err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		listener: ln,
		logger:   logger,
		tracer:   cfg.Tracer,
		metrics:  obs.NewRegistry(),
		agents:   make(map[int]*agentConn),
		capacity: make(map[int]int),
		windows:  make(map[int]core.BidderWindow),
		cancel:   cancel,
	}
	if cfg.Admission.enabled() {
		s.adm = newAdmissionState(cfg.Admission)
	}
	s.mBids = s.metrics.Counter("platform_bids_total")
	s.mDrops = s.metrics.Counter("platform_agent_drops_total")
	s.mRejects = s.metrics.Counter("platform_bids_rejected_total")
	// 2ms buckets across the 1s range: fine enough to resolve the
	// announce-to-bid tail at load-benchmark scale (tens of ms), with
	// slower responses clamped visibly into the overflow edge.
	s.mBidRTT = s.metrics.Histogram("platform_bid_rtt_us", 0, 1e6, 500)
	if cfg.Resume != nil && cfg.Resume.NextRound > 1 {
		// Continue the round sequence where the recovered log ends; agents
		// re-registering after the restart are welcomed into NextRound.
		s.round = cfg.Resume.NextRound - 1
	}
	if s.tracer != nil {
		if cfg.BidDeadline == 0 {
			s.tracer.Emit(obs.ConfigDefault{Component: "platform", Field: "BidDeadline", Value: DefaultBidDeadline.String()})
		}
		if cfg.WriteTimeout == 0 {
			s.tracer.Emit(obs.ConfigDefault{Component: "platform", Field: "WriteTimeout", Value: DefaultWriteTimeout.String()})
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ctx)
	}()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Metrics returns the server's always-on counter/histogram registry:
// rounds cleared, bids collected, agents dropped, per-bid round-trip
// latency, and round wall-clock. Snapshot() is JSON-marshalable and is
// what platformd publishes on its debug endpoint.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// AgentCount returns the number of registered agents.
func (s *Server) AgentCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.agents)
}

func (s *Server) acceptLoop(ctx context.Context) {
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			select {
			case <-ctx.Done():
				return
			default:
			}
			s.logger.Printf("accept: %v", err)
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(ctx, newConn(raw))
		}()
	}
}

// handle runs one session: registration (of one agent, or of a
// multiplexed contiguous range when HelloMsg.Count > 1), then a read
// loop ingesting bid submissions directly into the open gather window.
func (s *Server) handle(ctx context.Context, c *conn) {
	defer func() {
		if err := c.close(); err != nil && !errors.Is(err, net.ErrClosed) {
			s.logger.Printf("close agent conn: %v", err)
		}
	}()

	env, err := c.recv(5 * time.Second)
	if err != nil {
		s.logger.Printf("registration read: %v", err)
		return
	}
	if env.Type != TypeHello || env.Hello == nil || env.Hello.AgentID <= 0 {
		_ = c.send(&Envelope{Type: TypeError, Error: "expected hello with positive agent_id"}, s.cfg.writeTimeout())
		return
	}
	hello := env.Hello
	count := hello.Count
	if count < 1 {
		count = 1
	}

	// Circuit breaker: a flapping agent (repeated timeout/RST drops) is
	// refused at the door until its cool-down elapses. The check keys on
	// the session's first id — the breaker targets single-agent churners.
	if s.adm != nil {
		if ok, wait := s.adm.admit(hello.AgentID, time.Now()); !ok {
			s.mRejects.Inc()
			if s.tracer != nil {
				s.tracer.Emit(obs.BidRejected{ID: hello.AgentID, Code: RejectCircuitOpen})
			}
			_ = c.send(&Envelope{Type: TypeReject, Reject: &RejectMsg{
				Agent: hello.AgentID, Code: RejectCircuitOpen, RetryAfterMillis: wait.Milliseconds(),
			}}, s.cfg.writeTimeout())
			return
		}
	}

	sess := &session{c: c, first: hello.AgentID, count: count}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = c.send(&Envelope{Type: TypeShutdown}, s.cfg.writeTimeout())
		return
	}
	for i := 0; i < count; i++ {
		if _, dup := s.agents[hello.AgentID+i]; dup {
			s.mu.Unlock()
			_ = c.send(&Envelope{Type: TypeError, Error: fmt.Sprintf("agent %d already registered", hello.AgentID+i)}, s.cfg.writeTimeout())
			return
		}
	}
	for i := 0; i < count; i++ {
		id := hello.AgentID + i
		s.agents[id] = &agentConn{id: id, sess: sess}
		s.rosterStale = true
		s.capacity[id] = hello.Capacity
		if hello.Arrive != 0 || hello.Depart != 0 {
			s.windows[id] = core.BidderWindow{Arrive: hello.Arrive, Depart: hello.Depart}
		}
	}
	nextRound := s.round + 1
	s.mu.Unlock()

	if err := sess.send(&Envelope{Type: TypeWelcome, Welcome: &WelcomeMsg{AgentID: hello.AgentID, Round: nextRound}}, s.cfg.writeTimeout()); err != nil {
		s.logger.Printf("welcome agent %d: %v", hello.AgentID, err)
		s.dropSession(sess, obs.DropWelcomeFailed, err.Error())
		return
	}
	if count == 1 {
		s.logger.Printf("agent %d registered (capacity %d)", hello.AgentID, hello.Capacity)
	} else {
		s.logger.Printf("agents %d..%d registered on one session (capacity %d)", hello.AgentID, hello.AgentID+count-1, hello.Capacity)
	}
	if s.tracer != nil {
		for i := 0; i < count; i++ {
			s.tracer.Emit(obs.AgentJoin{ID: hello.AgentID + i, Capacity: hello.Capacity, Arrive: hello.Arrive, Depart: hello.Depart})
		}
	}

	// The ingest loop reuses one envelope and one line buffer per
	// connection: a multiplexed session's bid batch is tens of kilobytes
	// every round, and everything decoded here is copied out (into the
	// CSR ingest arena) before the next receive, so per-message
	// allocation would be pure GC pressure.
	var renv Envelope
	var lineBuf []byte
	for {
		if err := c.recvInto(&renv, &lineBuf, 0); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				s.logger.Printf("agent %d read: %v", hello.AgentID, err)
			}
			s.dropSession(sess, obs.DropReadError, err.Error())
			return
		}
		switch renv.Type {
		case TypeBid:
			if renv.Bid == nil {
				continue
			}
			s.ingestSubmit(sess, renv.Bid)
		default:
			s.logger.Printf("agent %d sent unexpected %q", hello.AgentID, renv.Type)
		}
	}
}

// ingestSubmit routes one decoded bid message to the per-agent ingest
// path: each Multi entry separately for a multiplexed session, or the
// session's sole agent for the plain form.
func (s *Server) ingestSubmit(sess *session, msg *BidSubmitMsg) {
	now := time.Now()
	if len(msg.Multi) > 0 {
		for i := range msg.Multi {
			ab := &msg.Multi[i]
			if !sess.owns(ab.Agent) {
				s.logger.Printf("session %d submitted for foreign agent %d", sess.first, ab.Agent)
				continue
			}
			s.ingestBid(sess, ab.Agent, msg.T, ab.Bids, now)
		}
		return
	}
	s.ingestBid(sess, sess.first, msg.T, msg.Bids, now)
}

// ingestBid applies one agent's submission directly into the open gather
// window. Admission checks run first (token bucket, then the per-round
// queue bound), then the mechanism-safety rules the serial engine
// enforced in its gather loop: a stale round tag is discarded with the
// agent kept pending, and only the first current-round submission counts
// — a resubmission could game the critical payment. A submission breaking
// the instance rules (checkSubmission) is that answer: it adds no bids
// and is rejected with RejectInvalidBid, so a malformed bid fails only
// its sender, never the round.
func (s *Server) ingestBid(sess *session, id, tag int, bids []WireBid, now time.Time) {
	if s.adm != nil {
		if ok, wait := s.adm.allowBid(id, now); !ok {
			s.reject(sess, &RejectMsg{T: tag, Agent: id, Code: RejectRateLimited, RetryAfterMillis: wait.Milliseconds()})
			return
		}
	}
	s.gmu.Lock()
	g := s.gather
	if g == nil || !g.open || sess.dead.Load() {
		// No open round (or the session is already deregistered): the
		// submission is necessarily stale. The serial engine drained these
		// at announce time; direct ingest drops them on arrival.
		s.gmu.Unlock()
		return
	}
	t := g.t
	if s.adm != nil && s.adm.cfg.QueueBound > 0 {
		g.submits[id]++
		if g.submits[id] > s.adm.cfg.QueueBound {
			s.gmu.Unlock()
			s.reject(sess, &RejectMsg{T: tag, Agent: id, Code: RejectQueueFull})
			return
		}
	}
	if tag != t {
		// Stale round tag: discard the message but KEEP the agent pending —
		// its forthcoming current-round bid must still count.
		s.gmu.Unlock()
		return
	}
	if g.answered[id] {
		// Resubmission for the current round: keep the first, and do not
		// decrement pending again, or the round could clear while an honest
		// agent is still pending.
		s.gmu.Unlock()
		return
	}
	g.answered[id] = true
	g.pending--
	if g.pending <= 0 && !g.doneClosed {
		close(g.done)
		g.doneClosed = true
	}
	if err := checkSubmission(bids, len(g.demand), &sess.alts); err != nil {
		s.gmu.Unlock()
		s.reject(sess, &RejectMsg{T: tag, Agent: id, Code: RejectInvalidBid, Reason: err.Error()})
		return
	}
	for i := range bids {
		wb := &bids[i]
		g.buf.Add(id, wb.Alt, wb.Price, wb.Covers, wb.Units)
	}
	rtt := now.Sub(g.announcedAt)
	if s.tracer != nil {
		// Emitted before releasing gmu: awaitGather closes the window under
		// gmu, so every accepted bid's event precedes the round's close and
		// audit record. Emitted after, it could land in the next round's
		// trace batch and break the auditor's bid count.
		s.tracer.Emit(obs.BidReceived{T: t, ID: id, Bids: len(bids), RTTMicros: rtt.Microseconds()})
	}
	s.gmu.Unlock()

	s.mBids.Add(int64(len(bids)))
	s.mBidRTT.Observe(float64(rtt.Microseconds()))
	if s.adm != nil {
		s.adm.recordSuccess(id)
	}
}

// checkSubmission applies core.CheckBid to each bid of one agent's
// submission for a round with needy needy microservices, and rejects a
// repeated alternative index. Ascending alternatives — what agents send —
// pass in one allocation-free sweep; otherwise the indices are sorted in
// the session's scratch, so a hostile order costs O(n log n), not O(n²).
func checkSubmission(bids []WireBid, needy int, scratch *[]int) error {
	ascending := true
	for i := range bids {
		b := &bids[i]
		if err := core.CheckBid(b.Price, b.Units, b.Covers, needy); err != nil {
			return fmt.Errorf("bid alt %d %w", b.Alt, err)
		}
		ascending = ascending && (i == 0 || bids[i-1].Alt < b.Alt)
	}
	if ascending {
		return nil
	}
	alts := (*scratch)[:0]
	for i := range bids {
		alts = append(alts, bids[i].Alt)
	}
	*scratch = alts
	slices.Sort(alts)
	for i := 1; i < len(alts); i++ {
		if alts[i] == alts[i-1] {
			return fmt.Errorf("alternative index %d submitted twice", alts[i])
		}
	}
	return nil
}

// reject sends a typed backpressure reply. A peer that cannot take the
// reply within the write timeout is dropped like any other stalled
// reader.
func (s *Server) reject(sess *session, msg *RejectMsg) {
	s.mRejects.Inc()
	if s.tracer != nil {
		s.tracer.Emit(obs.BidRejected{T: msg.T, ID: msg.Agent, Code: msg.Code})
	}
	if err := sess.send(&Envelope{Type: TypeReject, Reject: msg}, s.cfg.writeTimeout()); err != nil {
		s.logger.Printf("reject to agent %d: %v", msg.Agent, err)
		s.dropSession(sess, obs.DropWriteTimeout, err.Error())
	}
}

// dropAgent deregisters the session carrying agent id (dropping its
// session-mates with it: connection-level failure is session-level).
func (s *Server) dropAgent(id int, cause, detail string) {
	s.mu.Lock()
	a := s.agents[id]
	s.mu.Unlock()
	if a == nil {
		return
	}
	s.dropSession(a.sess, cause, detail)
}

// dropSession deregisters every agent of a session and closes its
// connection. It is idempotent: only the call that actually removes
// agents emits AgentDrop events and bumps the drop counter, so the read
// loop's follow-up (the closed connection makes its recv fail) stays
// silent.
func (s *Server) dropSession(sess *session, cause, detail string) {
	sess.dead.Store(true)
	var removed []int
	s.mu.Lock()
	for i := 0; i < sess.count; i++ {
		id := sess.first + i
		if a, ok := s.agents[id]; ok && a.sess == sess {
			delete(s.agents, id)
			s.rosterStale = true
			removed = append(removed, id)
		}
	}
	s.mu.Unlock()
	if len(removed) == 0 {
		return
	}
	_ = sess.c.close()
	now := time.Now()
	for _, id := range removed {
		s.mDrops.Inc()
		if s.adm != nil {
			s.adm.recordDrop(id, cause, now)
		}
		if s.tracer != nil {
			s.tracer.Emit(obs.AgentDrop{ID: id, Cause: cause, Detail: detail})
		}
	}
}

// RoundOutcome is the platform-visible result of one cleared round.
type RoundOutcome struct {
	T          int
	Awards     []WireAward
	SocialCost float64
	Infeasible bool
	// Bids is the assembled instance the auction ran on (for audit).
	Bids int
}

// RunRound clears one auction round for the given residual demand: it
// announces the round, gathers bids until the deadline, runs the online
// mechanism, and broadcasts the result. needyIDs (optional) names the
// needy microservices for the agents' benefit.
func (s *Server) RunRound(demand []int, needyIDs []int) (*RoundOutcome, error) {
	return s.RunRoundContext(context.Background(), demand, needyIDs)
}

// RunRoundContext is RunRound honoring ctx: if the context is cancelled
// while bids are being gathered the round aborts — no mechanism runs, no
// result is broadcast, pending agents stay connected — and the wrapped
// context error is returned. The round number is still consumed.
//
// Internally the round is the two pipeline stages run back to back:
// gatherRound (announce + ingest until deadline) then settleRound
// (match + payments + WAL + award fan-out). RunPipelined overlaps the
// stages across consecutive rounds instead.
func (s *Server) RunRoundContext(ctx context.Context, demand []int, needyIDs []int) (*RoundOutcome, error) {
	rs, err := s.gatherRound(ctx, demand, needyIDs)
	if err != nil {
		return nil, err
	}
	return s.settleRound(rs)
}

// gatherRound runs the ingest stage of one round: it consumes the next
// round number, announces the round to every registered agent, and keeps
// the gather window open until all announced agents answered, the bid
// deadline fired, or ctx was cancelled. On success the returned state
// holds the assembled canonical instance and must be passed to
// settleRound (which recycles it).
//
// It is the two ingest halves run back to back; RunPipelined calls them
// separately so the previous round's settle can run between a round's
// announce and its bid wait.
func (s *Server) gatherRound(ctx context.Context, demand []int, needyIDs []int) (*roundState, error) {
	rs, err := s.announceRound(ctx, demand, needyIDs)
	if err != nil {
		return nil, err
	}
	if err := s.awaitGather(ctx, rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// announceRound opens the gather window for the next round and fans the
// announce out to every registered agent. Bids land in the window from
// the per-connection read loops the moment the announce hits the wire —
// the caller need not be waiting yet, which is what lets a pipelined
// server settle the previous round in that gap. On error the window is
// torn down and the state recycled; the round number stays consumed.
func (s *Server) announceRound(ctx context.Context, demand []int, needyIDs []int) (*roundState, error) {
	started := time.Now()
	rs := s.getRoundState()
	rs.started = started
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.putRoundState(rs)
		return nil, errors.New("platform: server closed")
	}
	s.round++
	t := s.round
	if s.msoa == nil {
		cfg := s.cfg.Auction
		if cfg.Capacity == nil {
			cfg.Capacity = s.capacity
		}
		if cfg.Windows == nil {
			cfg.Windows = s.windows
		}
		if cfg.Options.Tracer == nil {
			cfg.Options.Tracer = s.tracer
		}
		s.auction = cfg
		if s.cfg.Resume != nil {
			s.msoa = core.RestoreMSOA(cfg, s.cfg.Resume.State)
		} else {
			s.msoa = core.NewMSOA(cfg)
		}
	}
	if s.rosterStale {
		s.roster = s.roster[:0]
		for _, a := range s.agents {
			s.roster = append(s.roster, a)
		}
		slices.SortFunc(s.roster, func(a, b *agentConn) int { return cmp.Compare(a.id, b.id) })
		s.rosterStale = false
	}
	rs.agents = append(rs.agents[:0], s.roster...)
	s.mu.Unlock()

	rs.t = t
	rs.demand = demand
	rs.needyIDs = needyIDs
	rs.droppedIDs = rs.droppedIDs[:0]

	deadline := s.cfg.bidDeadline()
	if s.tracer != nil {
		total := 0
		for _, d := range demand {
			total += d
		}
		s.tracer.Emit(obs.RoundOpen{
			Scope: obs.ScopePlatform, T: t, Needy: len(needyIDs),
			TotalDemand: total, Agents: len(rs.agents),
		})
	}

	// Open the gather window BEFORE announcing: with direct ingest there
	// is no per-agent buffer, so a fast agent's bid must find the window
	// open the moment it lands.
	s.gmu.Lock()
	rs.buf.Reset(demand)
	clear(rs.answered)
	clear(rs.submits)
	rs.pending = len(rs.agents)
	rs.open = true
	rs.doneClosed = false
	rs.done = make(chan struct{})
	rs.announcedAt = time.Now()
	if rs.pending == 0 {
		close(rs.done)
		rs.doneClosed = true
	}
	s.gather = rs
	s.gmu.Unlock()

	announce, err := encodeEnvelope(&Envelope{Type: TypeAnnounce, Announce: &AnnounceMsg{
		T: t, Demand: demand, NeedyIDs: needyIDs, DeadlineMillis: deadline.Milliseconds(),
	}})
	if err != nil {
		s.abortGather(rs)
		return nil, err
	}

	// Fault phase: consult the injection hook per agent, serially, before
	// any real send, so the injected drop set and its event order are
	// deterministic regardless of fan-out scheduling.
	if f := s.cfg.Fault.SendFault; f != nil {
		for _, a := range rs.agents {
			if err := f(t, a.id, TypeAnnounce); err != nil {
				s.logger.Printf("announce to agent %d: %v", a.id, err)
				// A write failure here means the agent cannot hear the round;
				// it would only pin the gather phase at the full deadline, so
				// deregister it now rather than wait for its read loop to fail.
				s.dropAgent(a.id, obs.DropWriteTimeout, err.Error())
			}
		}
		s.filterLive(rs)
	}

	rs.sessions = rs.sessions[:0]
	for _, a := range rs.agents {
		if a.id == a.sess.first {
			rs.sessions = append(rs.sessions, a.sess)
		}
	}
	for i, err := range s.broadcastRaw(rs, TypeAnnounce, announce) {
		if err != nil {
			ss := rs.sessions[i]
			s.logger.Printf("announce to agent %d: %v", ss.first, err)
			s.dropSession(ss, obs.DropWriteTimeout, err.Error())
		}
	}
	s.filterLive(rs)

	// Agents dropped at announce never heard the round; take them out of
	// the pending count (unless a racing in-flight bid already did).
	s.gmu.Lock()
	for _, id := range rs.droppedIDs {
		if !rs.answered[id] {
			rs.pending--
		}
	}
	if rs.pending <= 0 && !rs.doneClosed {
		close(rs.done)
		rs.doneClosed = true
	}
	s.gmu.Unlock()

	// Scripted crash: the process dies while bids are in flight. Nothing
	// reached the WAL for this round, so recovery re-runs round t whole.
	if err := s.crashPoint(t, CrashMidGather); err != nil {
		s.abortGather(rs)
		return nil, err
	}
	return rs, nil
}

// awaitGather blocks until the announced round's gather window resolves
// — every live announced agent answered, the bid deadline (measured
// from the announce, not from this call) fired, or ctx was cancelled —
// then closes the window and assembles the canonical instance. On error
// the state is recycled.
func (s *Server) awaitGather(ctx context.Context, rs *roundState) error {
	t := rs.t
	// Anchor the deadline at the announce time so a caller that settles
	// another round before waiting does not extend the agents' window.
	timer := time.NewTimer(time.Until(rs.announcedAt.Add(s.cfg.bidDeadline())))
	defer timer.Stop()
	select {
	case <-rs.done:
	case <-timer.C:
		if s.tracer != nil {
			for _, id := range s.unanswered(rs) {
				s.tracer.Emit(obs.AgentTimeout{T: t, ID: id, Cause: obs.TimeoutDeadline})
			}
		}
	case <-ctx.Done():
		var pending int
		s.gmu.Lock()
		pending = rs.pending
		s.gmu.Unlock()
		if s.tracer != nil {
			for _, id := range s.unanswered(rs) {
				s.tracer.Emit(obs.AgentTimeout{T: t, ID: id, Cause: obs.TimeoutCancelled})
			}
			s.tracer.Emit(obs.RoundAbort{T: t, Err: ctx.Err().Error(), Pending: pending})
		}
		s.metrics.Counter("platform_rounds_aborted_total").Inc()
		s.abortGather(rs)
		return fmt.Errorf("platform: round %d aborted: %w", t, ctx.Err())
	}

	// Close the window; late bids now drop at arrival like any other
	// out-of-round submission.
	s.gmu.Lock()
	rs.open = false
	s.gather = nil
	s.gmu.Unlock()

	// The ingest buffer re-emits every bid in canonical (Bidder, Alt)
	// order, so the instance — and everything downstream — is independent
	// of arrival order and shard routing.
	rs.ins = rs.buf.Build()
	if s.tracer != nil {
		s.tracer.Emit(obs.StageLatency{T: t, Stage: "gather", DurationMicros: time.Since(rs.started).Microseconds()})
	}
	if err := rs.ins.Validate(); err != nil {
		s.putRoundState(rs)
		return fmt.Errorf("platform: assembled invalid round instance: %w", err)
	}
	return nil
}

// filterLive compacts rs.agents down to agents whose session is still
// registered, recording the removed ids for the pending adjustment.
func (s *Server) filterLive(rs *roundState) {
	live := rs.agents[:0]
	for _, a := range rs.agents {
		if a.sess.dead.Load() {
			rs.droppedIDs = append(rs.droppedIDs, a.id)
			continue
		}
		live = append(live, a)
	}
	rs.agents = live
}

// unanswered snapshots the announced agents that have not answered, in
// id order, into the round's scratch slice.
func (s *Server) unanswered(rs *roundState) []int {
	rs.scratch = rs.scratch[:0]
	s.gmu.Lock()
	for _, a := range rs.agents {
		if !rs.answered[a.id] {
			rs.scratch = append(rs.scratch, a.id)
		}
	}
	s.gmu.Unlock()
	return rs.scratch
}

// abortGather tears down an open gather window after a crash or
// cancellation: the round number stays consumed, agents stay connected,
// and the state returns to the pool.
func (s *Server) abortGather(rs *roundState) {
	s.gmu.Lock()
	rs.open = false
	if s.gather == rs {
		s.gather = nil
	}
	s.gmu.Unlock()
	s.putRoundState(rs)
}

// broadcastRaw fans one pre-encoded envelope out to rs.sessions, each
// send bounded by the per-session write timeout. Up to broadcastWorkers
// sessions are written concurrently; errors come back slot-aligned with
// rs.sessions so the caller can process failures in deterministic
// (agent-id) order.
func (s *Server) broadcastRaw(rs *roundState, msgType string, data []byte) []error {
	n := len(rs.sessions)
	if cap(rs.sendErrs) < n {
		rs.sendErrs = make([]error, n)
	}
	errs := rs.sendErrs[:n]
	for i := range errs {
		errs[i] = nil
	}
	timeout := s.cfg.writeTimeout()
	if n <= 1 {
		for i, ss := range rs.sessions {
			errs[i] = ss.sendRaw(msgType, data, timeout)
		}
		return errs
	}
	workers := broadcastWorkers
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = rs.sessions[i].sendRaw(msgType, data, timeout)
			}
		}()
	}
	wg.Wait()
	return errs
}

// settleRound runs the match and settle/announce stages for a gathered
// round: SSAM selection with critical-value payments, the WAL append
// (durable BEFORE any bidder hears its award), and the result fan-out.
// The round state returns to the pool on every path.
func (s *Server) settleRound(rs *roundState) (*RoundOutcome, error) {
	defer s.putRoundState(rs)
	t := rs.t
	settleStart := time.Now()

	res := s.msoa.RunRound(core.Round{T: t, Instance: rs.ins})
	outcome := &RoundOutcome{T: t, Bids: len(rs.ins.Bids)}
	result := &ResultMsg{T: t}
	if res.Err != nil {
		outcome.Infeasible = true
		result.Infeasible = true
		s.logger.Printf("round %d infeasible: %v", t, res.Err)
	} else {
		outcome.SocialCost = res.Outcome.SocialCost
		result.SocialCost = res.Outcome.SocialCost
		for _, w := range res.Outcome.Winners {
			b := rs.ins.Bids[w]
			award := WireAward{Bidder: b.Bidder, Alt: b.Alt, Payment: res.Outcome.Payments[w]}
			if f := s.cfg.Fault.CorruptPayment; f != nil {
				award.Payment = f(t, award)
			}
			outcome.Awards = append(outcome.Awards, award)
			result.Awards = append(result.Awards, award)
		}
	}

	// Build the round record once; the WAL and the audit sink share it
	// (when the WAL stamps the logical timestamp and state hash first, the
	// audit line inherits them, keeping the two logs consistent). Cover
	// slices are deep-copied out of the pooled ingest arena because audit
	// consumers may retain the record past this round.
	var rec *AuditRecord
	if s.cfg.WAL != nil || s.cfg.Audit != nil {
		rec = &AuditRecord{
			T:          t,
			Demand:     rs.demand,
			NeedyIDs:   rs.needyIDs,
			Awards:     outcome.Awards,
			SocialCost: outcome.SocialCost,
			Infeasible: outcome.Infeasible,
		}
		for _, b := range rs.ins.Bids {
			rec.Bids = append(rec.Bids, AuditBid{
				Bidder: b.Bidder, Alt: b.Alt, Price: b.Price,
				Covers: append([]int(nil), b.Covers...), Units: b.Units,
			})
		}
	}

	// Write-ahead: the record must be durable BEFORE any bidder hears its
	// award, or a crash between announce and append would lose a round the
	// outside world already acted on.
	if s.cfg.WAL != nil {
		s.mu.Lock()
		rec.Capacity = copyIntMap(s.auction.Capacity)
		rec.Windows = copyWindowMap(s.auction.Windows)
		s.mu.Unlock()
		rec.StateHash = s.msoa.Snapshot().Hash()
		if err := s.cfg.WAL.Append(rec); err != nil {
			return nil, err
		}
	}

	// Scripted crash: the record is durable but no bidder heard the
	// result. Recovery resumes at t+1 with the logged state.
	if err := s.crashPoint(t, CrashPreAnnounce); err != nil {
		return nil, err
	}

	data, err := encodeEnvelope(&Envelope{Type: TypeResult, Result: result})
	if err != nil {
		return nil, err
	}
	if f := s.cfg.Fault.SendFault; f != nil {
		for _, a := range rs.agents {
			if err := f(t, a.id, TypeResult); err != nil {
				s.logger.Printf("result to agent %d: %v", a.id, err)
				s.dropAgent(a.id, obs.DropWriteTimeout, err.Error())
			}
		}
	}
	s.filterLive(rs)
	rs.sessions = rs.sessions[:0]
	for _, a := range rs.agents {
		if a.id == a.sess.first {
			rs.sessions = append(rs.sessions, a.sess)
		}
	}
	for i, err := range s.broadcastRaw(rs, TypeResult, data) {
		if err != nil {
			ss := rs.sessions[i]
			s.logger.Printf("result to agent %d: %v", ss.first, err)
			// A peer that cannot take the result within the write timeout
			// (stalled reader, dead connection) would stall every future
			// broadcast too; deregister it.
			s.dropSession(ss, obs.DropWriteTimeout, err.Error())
		}
	}

	// Scripted crash: bidders saw their awards; only in-memory state dies.
	// The write-ahead append above already made this round durable.
	if err := s.crashPoint(t, CrashPostAnnounce); err != nil {
		return nil, err
	}

	s.metrics.Counter("platform_rounds_total").Inc()
	s.metrics.Histogram("platform_round_us", 0, 5e6, 20).Observe(float64(time.Since(rs.started).Microseconds()))
	if s.tracer != nil {
		totalPay := 0.0
		for _, aw := range outcome.Awards {
			totalPay += aw.Payment
		}
		s.tracer.Emit(obs.StageLatency{T: t, Stage: "settle", DurationMicros: time.Since(settleStart).Microseconds()})
		s.tracer.Emit(obs.RoundClose{
			Scope: obs.ScopePlatform, T: t, Bids: len(rs.ins.Bids),
			Winners: len(outcome.Awards), SocialCost: outcome.SocialCost,
			TotalPayment: totalPay, Infeasible: outcome.Infeasible,
			DurationMicros: time.Since(rs.started).Microseconds(),
		})
	}

	if s.cfg.Audit != nil {
		if err := s.cfg.Audit.record(rec); err != nil {
			return nil, err
		}
	}
	return outcome, nil
}

// crashPoint consults the crash-injection hook at one scripted site. A
// non-nil hook error aborts the round exactly where a process kill would
// have — the caller returns immediately, leaving whatever the WAL and the
// network have already seen as the only survivors.
func (s *Server) crashPoint(t int, point string) error {
	f := s.cfg.Fault.Crash
	if f == nil {
		return nil
	}
	err := f(t, point)
	if err == nil {
		return nil
	}
	s.metrics.Counter("platform_crashes_total").Inc()
	if s.tracer != nil {
		s.tracer.Emit(obs.RoundAbort{T: t, Err: err.Error()})
	}
	return fmt.Errorf("platform: round %d crashed at %s: %w", t, point, err)
}

// SnapshotState returns the durable checkpoint ingredients: the last
// consumed round number and the mechanism's cross-round state (nil before
// the first round). Pair with WriteSnapshot between rounds; not safe to
// call concurrently with an in-flight RunRound.
func (s *Server) SnapshotState() (round int, st *core.MSOAState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.msoa == nil {
		return s.round, nil
	}
	return s.round, s.msoa.Snapshot()
}

// Summary returns the aggregate mechanism summary so far (nil before the
// first round).
func (s *Server) Summary() *core.OnlineSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.msoa == nil {
		return nil
	}
	return s.msoa.Summary()
}

// Close shuts the platform down: notifies agents, stops accepting, and
// waits for connection handlers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.agents))
	seen := make(map[*session]bool, len(s.agents))
	for _, a := range s.agents {
		if !seen[a.sess] {
			seen[a.sess] = true
			sessions = append(sessions, a.sess)
		}
	}
	s.mu.Unlock()

	s.cancel()
	for _, ss := range sessions {
		_ = ss.send(&Envelope{Type: TypeShutdown}, s.cfg.writeTimeout())
		_ = ss.c.close()
	}
	err := s.listener.Close()
	s.wg.Wait()
	if err != nil {
		return fmt.Errorf("platform: close listener: %w", err)
	}
	return nil
}
