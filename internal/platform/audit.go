package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
)

// AuditKind is the kind tag stamped on every audit/WAL record.
const AuditKind = "edgeauction-audit"

// Audit records every round the platform clears as one JSON line, so
// operators can replay disputes offline: each record embeds the full
// assembled instance, which AuditRecord.Instance rebuilds (and
// workload.WriteInstance can save as a cmd/wspsolve -in file; wspsolve
// does not read audit records). Writers are serialized; any io.Writer
// works (file, pipe, network).
type Audit struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	flush func() error
	sink  func(*AuditRecord) error
	clock func(t int) int64
}

// NewAudit wraps a writer as an audit sink. A writer exposing
// Flush() error (e.g. *bufio.Writer) is flushed after every record, so a
// crash right after a round closes cannot strand the round's line in a
// userspace buffer.
func NewAudit(w io.Writer) *Audit {
	a := &Audit{w: w, enc: json.NewEncoder(w)}
	if f, ok := w.(interface{ Flush() error }); ok {
		a.flush = f.Flush
	}
	return a
}

// NewAuditSink delivers each completed round record to fn instead of a
// writer. fn runs synchronously on the RunRound goroutine after the
// round's trace events (including the platform-scope RoundClose) have
// been emitted, so an online auditor pairing an obs.RoundSink with this
// sink sees round t's full trace batch before record t. An fn error
// surfaces from RunRound exactly like an unwritable audit log.
func NewAuditSink(fn func(*AuditRecord) error) *Audit {
	return &Audit{sink: fn}
}

// WithClock injects the timestamp source used for records whose
// UnixMillis is still zero: clock(t) is called with the round number.
// Without an injected clock, records are stamped with wall-clock
// time.Now(), which makes identically-seeded runs byte-different —
// seeded/deterministic harnesses should install LogicalClock. Returns the
// audit for chaining.
func (a *Audit) WithClock(clock func(t int) int64) *Audit {
	a.clock = clock
	return a
}

// AuditRecord is one cleared (or failed) round. When written by a WAL
// (see WAL.Append), the record additionally carries the capacity/window
// maps the round was filtered under and the post-round state hash, which
// is what makes replaying a WAL suffix exact.
type AuditRecord struct {
	// Kind is always AuditKind.
	Kind string `json:"kind"`
	// T is the round number.
	T int `json:"t"`
	// UnixMillis is the time the round cleared: wall-clock by default, the
	// round number itself under LogicalClock.
	UnixMillis int64 `json:"unix_ms"`
	// Demand is the announced residual demand.
	Demand []int `json:"demand"`
	// NeedyIDs names the needy microservices, if provided.
	NeedyIDs []int `json:"needy_ids,omitempty"`
	// Bids holds every collected bid, by bidder.
	Bids []AuditBid `json:"bids"`
	// Awards holds winners and payments.
	Awards []WireAward `json:"awards,omitempty"`
	// SocialCost is the round's cleared cost.
	SocialCost float64 `json:"social_cost"`
	// Infeasible marks rounds whose demand could not be covered.
	Infeasible bool `json:"infeasible,omitempty"`
	// Capacity is the per-bidder Θ map in force when the round ran. Only
	// WAL records carry it; replay swaps it in before re-running the round
	// so registration-learned capacities filter identically.
	Capacity map[int]int `json:"capacity,omitempty"`
	// Windows is the per-bidder participation-window map in force when the
	// round ran. Only WAL records carry it.
	Windows map[int]core.BidderWindow `json:"windows,omitempty"`
	// StateHash is core.MSOAState.Hash() AFTER this round was applied.
	// Only WAL records carry it; recovery asserts the replayed state
	// reaches the same hash.
	StateHash string `json:"state_hash,omitempty"`
}

// Instance rebuilds the core instance the record claims the round ran on
// (demand plus (bidder, alt)-sorted bids, prices doubling as true costs).
// Both the chaos auditor's shadow replay and WAL recovery feed this to an
// MSOA.
func (rec *AuditRecord) Instance() *core.Instance {
	ins := &core.Instance{Demand: rec.Demand}
	for _, b := range rec.Bids {
		ins.Bids = append(ins.Bids, core.Bid{
			Bidder: b.Bidder, Alt: b.Alt, Price: b.Price,
			TrueCost: b.Price, Covers: b.Covers, Units: b.Units,
		})
	}
	return ins
}

// AuditBid is one collected bid in an audit record.
type AuditBid struct {
	Bidder int     `json:"bidder"`
	Alt    int     `json:"alt"`
	Price  float64 `json:"price"`
	Covers []int   `json:"covers"`
	Units  int     `json:"units"`
}

// record appends one line; errors are returned so the server can surface
// them (an unwritable audit log is an operational fault, not a silent
// degradation).
func (a *Audit) record(rec *AuditRecord) error {
	rec.Kind = AuditKind
	if rec.UnixMillis == 0 {
		if a.clock != nil {
			rec.UnixMillis = a.clock(rec.T)
		} else {
			rec.UnixMillis = time.Now().UnixMilli()
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.enc != nil {
		if err := a.enc.Encode(rec); err != nil {
			return fmt.Errorf("platform: write audit record: %w", err)
		}
		if a.flush != nil {
			if err := a.flush(); err != nil {
				return fmt.Errorf("platform: flush audit log: %w", err)
			}
		}
	}
	if a.sink != nil {
		if err := a.sink(rec); err != nil {
			return fmt.Errorf("platform: audit sink: %w", err)
		}
	}
	return nil
}

// ReadAudit parses an audit (or WAL) stream back into records.
//
// A malformed FINAL record — the torn tail a crash leaves behind — does
// not discard the log: every complete preceding record is returned
// together with an error wrapping obs.ErrTruncated, so recovery and
// operators can use crash-cut logs. A malformed record with complete
// records after it is corruption, not a crash cut, and returns the
// readable prefix with a non-truncation error; a complete record with the
// wrong kind is ErrProtocol wherever it appears.
func ReadAudit(r io.Reader) ([]*AuditRecord, error) {
	lines, lastLine, err := obs.ReadJSONLLines(r)
	if err != nil {
		return nil, fmt.Errorf("platform: read audit stream: %w", err)
	}
	var out []*AuditRecord
	for i, line := range lines {
		var rec AuditRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			if i == lastLine {
				return out, fmt.Errorf("platform: audit record %d: %w", len(out), obs.ErrTruncated)
			}
			return out, fmt.Errorf("platform: parse audit record %d: %w", len(out), uerr)
		}
		if rec.Kind != AuditKind {
			return out, fmt.Errorf("%w: record %d has kind %q", ErrProtocol, len(out), rec.Kind)
		}
		out = append(out, &rec)
	}
	return out, nil
}
