// Package platform turns the mechanism into a deployable distributed
// system: an auctioneer daemon (the edge platform) speaking a JSON-line TCP
// protocol with microservice agents. Each round the auctioneer announces
// the residual demand, collects bids until a deadline, runs the online
// auction (core.MSOA), pays winners, and broadcasts the result — the §II
// message flow made concrete.
package platform

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Message types on the wire. Every line is one JSON-encoded Envelope.
const (
	// TypeHello registers an agent (agent -> server).
	TypeHello = "hello"
	// TypeWelcome acknowledges registration (server -> agent).
	TypeWelcome = "welcome"
	// TypeAnnounce opens a bidding round (server -> agents).
	TypeAnnounce = "announce"
	// TypeBid submits an agent's alternative bids (agent -> server).
	TypeBid = "bid"
	// TypeResult closes a round with winners and payments
	// (server -> agents).
	TypeResult = "result"
	// TypeError reports a protocol violation before disconnect.
	TypeError = "error"
	// TypeShutdown tells agents the platform is going away.
	TypeShutdown = "shutdown"
	// TypeReject is the typed backpressure reply (server -> agent): the
	// submission (or registration) was shed by admission control, with a
	// machine-readable cause. Unlike TypeError it does not end the
	// conversation — a rejected bid leaves the connection registered.
	TypeReject = "reject"
)

// Reject causes carried by RejectMsg.Code.
const (
	// RejectRateLimited: the per-agent token bucket is empty.
	RejectRateLimited = "rate_limited"
	// RejectQueueFull: the agent's bounded ingest queue shed the message.
	RejectQueueFull = "queue_full"
	// RejectCircuitOpen: the agent's circuit breaker is open after
	// repeated drops; registration is refused until the cool-down.
	RejectCircuitOpen = "circuit_open"
	// RejectInvalidBid: the submission breaks the instance rules
	// (core.CheckBid, or a repeated alternative index). It counts as the
	// agent's answer for the round, with no bids; RejectMsg.Reason says
	// which rule failed.
	RejectInvalidBid = "invalid_bid"
)

// Envelope frames every protocol message.
type Envelope struct {
	Type     string        `json:"type"`
	Hello    *HelloMsg     `json:"hello,omitempty"`
	Welcome  *WelcomeMsg   `json:"welcome,omitempty"`
	Announce *AnnounceMsg  `json:"announce,omitempty"`
	Bid      *BidSubmitMsg `json:"bid,omitempty"`
	Result   *ResultMsg    `json:"result,omitempty"`
	Reject   *RejectMsg    `json:"reject,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// RejectMsg explains a shed or refused submission to the agent.
type RejectMsg struct {
	// T is the round the rejected submission was tagged with (0 for
	// registration rejections).
	T int `json:"t,omitempty"`
	// Agent identifies the rejected agent within a multiplexed session.
	Agent int `json:"agent,omitempty"`
	// Code is one of the Reject* constants.
	Code string `json:"code"`
	// RetryAfterMillis hints when the agent may try again (0: unknown).
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
	// Reason details a RejectInvalidBid: the first broken rule.
	Reason string `json:"reason,omitempty"`
}

// HelloMsg registers an agent with the platform.
type HelloMsg struct {
	// AgentID is the microservice's bidder identifier; must be positive
	// and unique across live connections.
	AgentID int `json:"agent_id"`
	// Capacity is Θ_i, the lifetime coverage the agent is willing to
	// share; 0 means unlimited.
	Capacity int `json:"capacity"`
	// Arrive and Depart bound the agent's participation window; both 0
	// means always present.
	Arrive int `json:"arrive,omitempty"`
	Depart int `json:"depart,omitempty"`
	// Count, when > 1, registers a multiplexed session: agents
	// AgentID..AgentID+Count-1 share this one connection (all with the
	// same capacity and window). Load generators use this to hold 100k
	// agents in a few hundred sockets; bids are then submitted per agent
	// through BidSubmitMsg.Multi.
	Count int `json:"count,omitempty"`
}

// WelcomeMsg acknowledges a registration.
type WelcomeMsg struct {
	AgentID int `json:"agent_id"`
	// Round is the next round number the agent will see.
	Round int `json:"round"`
}

// AnnounceMsg opens round T for bidding.
type AnnounceMsg struct {
	T int `json:"t"`
	// Demand is the residual coverage requirement per needy microservice.
	Demand []int `json:"demand"`
	// NeedyIDs names the needy microservices (aligned with Demand).
	NeedyIDs []int `json:"needy_ids,omitempty"`
	// DeadlineMillis is how long agents have to submit bids.
	DeadlineMillis int64 `json:"deadline_ms"`
}

// WireBid is one alternative bid on the wire.
type WireBid struct {
	Alt    int     `json:"alt"`
	Price  float64 `json:"price"`
	Covers []int   `json:"covers"`
	Units  int     `json:"units"`
}

// BidSubmitMsg carries an agent's bids for a round. A single-agent
// connection fills Bids; a multiplexed session batches one entry per
// agent into Multi so a whole fleet's round answers ride one write.
type BidSubmitMsg struct {
	T    int       `json:"t"`
	Bids []WireBid `json:"bids,omitempty"`
	// Multi carries per-agent bid sets for a multiplexed session. Agents
	// absent from Multi abstain.
	Multi []AgentBids `json:"multi,omitempty"`
}

// AgentBids is one agent's bid set inside a multiplexed submission.
type AgentBids struct {
	Agent int       `json:"agent"`
	Bids  []WireBid `json:"bids"`
}

// WireAward is one winning bid in a result.
type WireAward struct {
	Bidder  int     `json:"bidder"`
	Alt     int     `json:"alt"`
	Payment float64 `json:"payment"`
}

// ResultMsg closes a round.
type ResultMsg struct {
	T          int         `json:"t"`
	Awards     []WireAward `json:"awards"`
	SocialCost float64     `json:"social_cost"`
	// Infeasible reports a round whose demand could not be covered.
	Infeasible bool `json:"infeasible,omitempty"`
}

// ErrProtocol reports a message that violates the protocol state machine.
var ErrProtocol = errors.New("platform: protocol violation")

// conn wraps a net.Conn with line-oriented JSON encode/decode and write
// deadlines. It is not safe for concurrent writers; callers serialize.
type conn struct {
	raw net.Conn
	r   *bufio.Reader
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, r: bufio.NewReader(raw)}
}

// encodeEnvelope marshals env into one newline-terminated JSON line,
// ready for sendRaw. Broadcast paths encode once and fan the bytes out.
func encodeEnvelope(env *Envelope) ([]byte, error) {
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("platform: marshal %s: %w", env.Type, err)
	}
	return append(data, '\n'), nil
}

// send writes one envelope as a JSON line, bounded by timeout.
func (c *conn) send(env *Envelope, timeout time.Duration) error {
	data, err := encodeEnvelope(env)
	if err != nil {
		return err
	}
	return c.sendRaw(env.Type, data, timeout)
}

// sendRaw writes pre-encoded line bytes, bounded by timeout. msgType
// only labels errors.
func (c *conn) sendRaw(msgType string, data []byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return fmt.Errorf("platform: set write deadline: %w", err)
		}
	}
	if _, err := c.raw.Write(data); err != nil {
		return fmt.Errorf("platform: write %s: %w", msgType, err)
	}
	return nil
}

// readLine reads one newline-terminated line into buf (reused across
// calls), growing it only past the high-water mark. Unlike ReadBytes it
// does not allocate a fresh slice per line, which matters on the bid
// ingest path where a multiplexed session's batch is tens of kilobytes
// every round.
func (c *conn) readLine(buf *[]byte) ([]byte, error) {
	*buf = (*buf)[:0]
	for {
		frag, err := c.r.ReadSlice('\n')
		*buf = append(*buf, frag...)
		if err == nil {
			return *buf, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			if errors.Is(err, io.EOF) && len(*buf) == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("platform: read line: %w", err)
		}
	}
}

// recvInto decodes the next message into env. A canonical bid line goes
// through decodeCanonicalBid, which reuses env's bid storage from the
// previous message and allocates nothing in steady state; every other
// line is decoded by encoding/json into a fresh envelope, so env always
// ends up equal to a fresh decode of the line and a field the peer
// omitted never inherits a stale value. Used by the server's bid ingest
// loop, where everything decoded is copied out (into the CSR arena)
// before the next receive.
func (c *conn) recvInto(env *Envelope, buf *[]byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return fmt.Errorf("platform: set read deadline: %w", err)
		}
	} else {
		if err := c.raw.SetReadDeadline(time.Time{}); err != nil {
			return fmt.Errorf("platform: clear read deadline: %w", err)
		}
	}
	line, err := c.readLine(buf)
	if err != nil {
		return err
	}
	if decodeCanonicalBid(env, line) {
		return nil
	}
	*env = Envelope{}
	if err := json.Unmarshal(line, env); err != nil {
		return fmt.Errorf("%w: bad JSON: %v", ErrProtocol, err)
	}
	if env.Type == "" {
		return fmt.Errorf("%w: missing message type", ErrProtocol)
	}
	return nil
}

// recv reads one envelope, bounded by timeout (0 means no deadline).
func (c *conn) recv(timeout time.Duration) (*Envelope, error) {
	if timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("platform: set read deadline: %w", err)
		}
	} else {
		if err := c.raw.SetReadDeadline(time.Time{}); err != nil {
			return nil, fmt.Errorf("platform: clear read deadline: %w", err)
		}
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		if errors.Is(err, io.EOF) && len(line) == 0 {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("platform: read line: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("%w: bad JSON: %v", ErrProtocol, err)
	}
	if env.Type == "" {
		return nil, fmt.Errorf("%w: missing message type", ErrProtocol)
	}
	return &env, nil
}

func (c *conn) close() error { return c.raw.Close() }
