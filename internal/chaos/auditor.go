package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"edgeauction/internal/core"
	"edgeauction/internal/federation"
	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
)

// Violation is one broken mechanism invariant caught by the auditor.
type Violation struct {
	// Round is the platform round the violation was observed in.
	Round int `json:"round"`
	// Invariant names the broken property (feasibility,
	// individual-rationality, critical-value, psi, capacity, budget,
	// certificate, consistency, bid-order, bid-count, federation).
	Invariant string `json:"invariant"`
	// Detail is a human-readable account of the mismatch.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d: %s: %s", v.Round, v.Invariant, v.Detail)
}

const auditEps = 1e-6

// auditor is the online invariant checker. It consumes the platform's
// trace stream (batched per round by an obs.RoundSink) and audit records
// (via platform.NewAuditSink, delivered after the round's trace batch on
// the same goroutine), maintains an independent shadow replay of the
// online mechanism, and machine-checks after every round:
//
//   - consistency: the shadow replay reproduces the platform's feasibility
//     verdict, winner set, social cost, and every payment bit-for-bit;
//   - feasibility: winners cover the announced demand (core.VerifyFeasible);
//   - individual rationality: every payment covers the winner's scaled
//     report (core.VerifyIndividualRationality, plus the raw award check);
//   - critical-value consistency: one rotating winner per round is
//     replayed from scratch through core.SpotCheckCriticalValue;
//   - ψ updates: every PsiUpdate event matches the shadow state bit-exactly
//     and ψ never decreases;
//   - capacity conservation: no limited bidder exceeds its lifetime Θ;
//   - budget sanity: payments ≥ scaled cost ≥ social cost per round, and
//     cumulative totals track the shadow summary;
//   - dual certificates: the round's certificate verifies against the
//     FILTERED instance (core.VerifyCertificate) and the traced ratio
//     matches the shadow's;
//   - trace integrity: bids are (bidder, alt)-sorted and the BidReceived
//     events account for every collected bid.
//
// Every audit line the auditor writes is free of wall-clock fields and
// arrival-order artifacts, so two runs of the same scenario seed produce
// byte-identical logs.
type auditor struct {
	sc     *Scenario
	enc    *json.Encoder
	logger *log.Logger

	shadow   *core.MSOA
	capacity map[int]int
	psiSeen  map[int]float64
	// ssam gates the SSAM-only invariants (critical-value spot checks,
	// certificates): they encode Algorithm 1's payment rule and dual
	// fitting, which other registered mechanisms do not promise.
	// Universal invariants (feasibility, IR, budget, consistency,
	// capacity, trace integrity) run for every mechanism, and
	// SettlementReporter mechanisms additionally get the per-round
	// penalty-bound check.
	ssam bool

	dumpDir string
	maxViol int

	mu         sync.Mutex
	batches    map[int][]obs.Event
	violations []Violation
	dumps      []string
	checks     int
	rounds     int
	infeasible int
	cumPay     float64
	rot        int
}

func newAuditor(sc *Scenario, auditLog io.Writer, dumpDir string, maxViol int, logger *log.Logger) *auditor {
	capacity := map[int]int{}
	spec := sc.MechanismSpec()
	a := &auditor{
		sc:       sc,
		logger:   logger,
		capacity: capacity,
		psiSeen:  map[int]float64{},
		ssam:     spec.IsSSAM(),
		dumpDir:  dumpDir,
		maxViol:  maxViol,
		batches:  map[int][]obs.Event{},
		shadow: core.NewMSOA(core.MSOAConfig{
			Capacity:  capacity,
			Mechanism: spec,
			Options:   core.Options{Parallelism: 1},
		}),
	}
	if auditLog != nil {
		a.enc = json.NewEncoder(auditLog)
	}
	return a
}

// storeBatch is the obs.RoundSink flush callback.
func (a *auditor) storeBatch(t int, events []obs.Event) {
	a.mu.Lock()
	a.batches[t] = events
	a.mu.Unlock()
}

func (a *auditor) takeBatch(t int) []obs.Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.batches[t]
	delete(a.batches, t)
	return b
}

// stop reports whether the violation budget is exhausted.
func (a *auditor) stop() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxViol > 0 && len(a.violations) >= a.maxViol
}

// lineAward is one award in a deterministic audit line.
type lineAward struct {
	Bidder  int     `json:"bidder"`
	Alt     int     `json:"alt"`
	Payment float64 `json:"payment"`
}

// linePsi is one bidder's dual state after a round.
type linePsi struct {
	Bidder int     `json:"bidder"`
	Psi    float64 `json:"psi"`
	Chi    int     `json:"chi"`
}

// auditLine is one deterministic per-round log line. It deliberately
// carries no timestamps, latencies, or drop-event counts: those depend on
// scheduler and network timing, and the soak gate compares two runs of
// the same seed with cmp(1).
type auditLine struct {
	Kind       string      `json:"kind"`
	T          int         `json:"t"`
	Demand     []int       `json:"demand,omitempty"`
	Bids       int         `json:"bids"`
	Infeasible bool        `json:"infeasible,omitempty"`
	Awards     []lineAward `json:"awards,omitempty"`
	SocialCost float64     `json:"social_cost"`
	TotalPay   float64     `json:"total_payment"`
	CertRatio  float64     `json:"cert_ratio,omitempty"`
	Psi        []linePsi   `json:"psi,omitempty"`
	Checks     int         `json:"checks"`
	Violations []Violation `json:"violations,omitempty"`
}

// auditRound runs every invariant check against one platform round. It is
// installed via platform.NewAuditSink, so it executes synchronously on the
// RunRound goroutine after the round's trace batch has been flushed. The
// returned error is always nil — a violation is a finding, not an
// operational fault — so the soak keeps running to its violation budget.
func (a *auditor) auditRound(rec *platform.AuditRecord) error {
	batch := a.takeBatch(rec.T)
	var viol []Violation
	checks := 0
	check := func(invariant string, err error) {
		checks++
		if err != nil {
			viol = append(viol, Violation{Round: rec.T, Invariant: invariant, Detail: err.Error()})
		}
	}
	checkf := func(invariant string, ok bool, format string, args ...any) {
		checks++
		if !ok {
			viol = append(viol, Violation{Round: rec.T, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
		}
	}

	// Learn joins (including rejoins) from the trace before replaying: the
	// shadow MSOA shares a.capacity, mirroring how the real server merges
	// registration capacities into its own mechanism.
	bidsReceived := 0
	var psiEvents []obs.PsiUpdate
	var certs []obs.Certificate
	for _, ev := range batch {
		switch e := ev.(type) {
		case obs.AgentJoin:
			a.capacity[e.ID] = e.Capacity
		case obs.BidReceived:
			if e.T == rec.T {
				bidsReceived += e.Bids
			}
		case obs.PsiUpdate:
			if e.T == rec.T {
				psiEvents = append(psiEvents, e)
			}
		case obs.Certificate:
			certs = append(certs, e)
		}
	}
	checkf("bid-count", bidsReceived == len(rec.Bids),
		"BidReceived events account for %d bids, audit record holds %d", bidsReceived, len(rec.Bids))

	// Rebuild the instance the platform says it ran on — the same
	// AuditRecord.Instance reconstruction WAL recovery replays from — and
	// check the record's bid ordering on the way.
	for i := 1; i < len(rec.Bids); i++ {
		b, prev := rec.Bids[i], rec.Bids[i-1]
		if b.Bidder < prev.Bidder || (b.Bidder == prev.Bidder && b.Alt <= prev.Alt) {
			checkf("bid-order", false, "bid %d (%d/%d) out of (bidder, alt) order after (%d/%d)",
				i, b.Bidder, b.Alt, prev.Bidder, prev.Alt)
		}
	}
	ins := rec.Instance()

	// Independent shadow replay through the same platform.ReplayRecord the
	// WAL recovery path uses. Serial payments are bit-identical to the
	// server's parallel ones, so every comparison below is exact. (The
	// engine's records carry no capacity/window maps — the shadow learns
	// those from AgentJoin events above — so ReplayRecord leaves
	// a.capacity alone.)
	res := platform.ReplayRecord(a.shadow, rec, a.capacity, nil)

	line := auditLine{Kind: "round", T: rec.T, Demand: rec.Demand, Bids: len(rec.Bids)}
	checkf("consistency", rec.Infeasible == (res.Err != nil),
		"platform infeasible=%v, shadow replay err=%v", rec.Infeasible, res.Err)

	if res.Err == nil && !rec.Infeasible {
		out := res.Outcome
		checkf("consistency", rec.SocialCost == out.SocialCost,
			"platform social cost %v, shadow %v", rec.SocialCost, out.SocialCost)
		checkf("consistency", len(rec.Awards) == len(out.Winners),
			"platform granted %d awards, shadow selected %d winners", len(rec.Awards), len(out.Winners))
		totalPay := 0.0
		for i, w := range out.Winners {
			if i >= len(rec.Awards) {
				break
			}
			aw := rec.Awards[i]
			b := ins.Bids[w]
			checkf("consistency", aw.Bidder == b.Bidder && aw.Alt == b.Alt,
				"award %d is %d/%d, shadow winner is %d/%d", i, aw.Bidder, aw.Alt, b.Bidder, b.Alt)
			checkf("payment", aw.Payment == out.Payments[w],
				"award %d (bidder %d): platform pays %v, critical value is %v", i, aw.Bidder, aw.Payment, out.Payments[w])
			checkf("individual-rationality", aw.Payment >= res.Scaled[w]-auditEps,
				"award %d (bidder %d): payment %v below scaled report %v", i, aw.Bidder, aw.Payment, res.Scaled[w])
			totalPay += aw.Payment
			line.Awards = append(line.Awards, lineAward{Bidder: b.Bidder, Alt: b.Alt, Payment: out.Payments[w]})
		}
		check("feasibility", core.VerifyFeasible(ins, out))
		check("individual-rationality", core.VerifyIndividualRationality(ins, out, res.Scaled))

		// The certificate was fitted on the candidate set that survived the
		// capacity/window filter, so verification needs that instance
		// back. Certificates are an SSAM-only promise; other mechanisms
		// must not emit any.
		fIns, fScaled, toFiltered := filterExcluded(ins, res.Scaled, res.Excluded)
		if a.ssam {
			check("certificate", core.VerifyCertificate(fIns, out, fScaled))
			checkf("certificate", len(certs) == 1,
				"feasible round emitted %d certificate events, want 1", len(certs))
			if len(certs) == 1 && out.Dual != nil {
				checkf("certificate", certs[0].Ratio == out.Dual.Ratio(),
					"traced certificate ratio %v, shadow ratio %v", certs[0].Ratio, out.Dual.Ratio())
			}
		} else {
			checkf("certificate", len(certs) == 0,
				"non-SSAM round emitted %d certificate events", len(certs))
		}

		// Budget: payments dominate scaled reports, which dominate raw
		// prices — universal across mechanisms (IR per winner plus the
		// scaled-price construction).
		checkf("budget", totalPay >= out.ScaledCost-auditEps && out.ScaledCost >= out.SocialCost-auditEps,
			"payment %v / scaled cost %v / social cost %v out of order", totalPay, out.ScaledCost, out.SocialCost)

		// Rotating critical-value spot-check: a from-scratch replay of one
		// winner per round in the filtered bid space. SSAM-only: the
		// Myerson critical-value payment rule is Algorithm 1's, not a
		// universal promise.
		if a.ssam && len(out.Winners) > 0 {
			w := out.Winners[a.rot%len(out.Winners)]
			a.rot++
			if fw, ok := toFiltered[w]; ok {
				check("critical-value", core.SpotCheckCriticalValue(fIns, fScaled, core.Options{Parallelism: 1}, fw, out.Payments[w]))
			} else {
				checkf("consistency", false, "winner %d is also in the excluded list", w)
			}
		}
		a.cumPay += totalPay
		line.SocialCost = out.SocialCost
		line.TotalPay = totalPay
		if out.Dual != nil {
			line.CertRatio = out.Dual.Ratio()
		}
	} else {
		a.infeasible++
		line.Infeasible = true
		checkf("consistency", len(rec.Awards) == 0 && rec.SocialCost == 0,
			"infeasible round carries %d awards, social cost %v", len(rec.Awards), rec.SocialCost)
		checkf("certificate", len(certs) == 0,
			"infeasible round emitted %d certificate events", len(certs))
	}

	// Per-mechanism invariant: a mechanism that settles futures
	// reservations (the double auction) must satisfy the overbooking
	// penalty bound every round — penalties never exceed the configured
	// rate times the defaulted booked value, futures payments never
	// exceed the booked value — and its settlement must account for the
	// round's full outlay.
	if sr, ok := a.shadow.Mechanism().(core.SettlementReporter); ok {
		if st := sr.LastSettlement(); st != nil {
			check("penalty-bound", core.VerifyPenaltyBound(st, sr.SettlementConfig()))
			if res.Err == nil && !rec.Infeasible {
				settled := st.FuturesPaid + st.SpotPaid
				checkf("penalty-bound", math.Abs(settled-res.Outcome.TotalPayment()) <= auditEps,
					"settlement accounts %v (futures %v + spot %v), round paid %v",
					settled, st.FuturesPaid, st.SpotPaid, res.Outcome.TotalPayment())
			}
		}
	}

	// ψ trajectory: traced updates must match the shadow bit-exactly and
	// never decrease (the update rule only multiplies up and adds).
	sort.Slice(psiEvents, func(i, j int) bool { return psiEvents[i].Bidder < psiEvents[j].Bidder })
	for _, ev := range psiEvents {
		checkf("psi", ev.Psi == a.shadow.Psi(ev.Bidder),
			"bidder %d traced ψ %v, shadow ψ %v", ev.Bidder, ev.Psi, a.shadow.Psi(ev.Bidder))
		checkf("psi", ev.Psi >= a.psiSeen[ev.Bidder],
			"bidder %d ψ decreased %v -> %v", ev.Bidder, a.psiSeen[ev.Bidder], ev.Psi)
		checkf("capacity", ev.Chi == a.shadow.UsedCapacity(ev.Bidder),
			"bidder %d traced χ %d, shadow χ %d", ev.Bidder, ev.Chi, a.shadow.UsedCapacity(ev.Bidder))
		a.psiSeen[ev.Bidder] = ev.Psi
		line.Psi = append(line.Psi, linePsi{Bidder: ev.Bidder, Psi: ev.Psi, Chi: ev.Chi})
	}

	// Capacity conservation for every limited bidder seen so far.
	for _, id := range sortedKeys(a.capacity) {
		th := a.capacity[id]
		if th <= 0 {
			continue
		}
		checkf("capacity", a.shadow.UsedCapacity(id) <= th,
			"bidder %d consumed %d of Θ=%d slots", id, a.shadow.UsedCapacity(id), th)
	}

	// Cumulative budget vs the shadow's own accounting.
	sum := a.shadow.Summary()
	checkf("budget", math.Abs(sum.TotalPayment-a.cumPay) <= auditEps,
		"cumulative platform payments %v drifted from shadow total %v", a.cumPay, sum.TotalPayment)

	a.rounds++
	a.checks += checks
	line.Checks = checks
	line.Violations = viol
	a.finishLine(rec.T, line, viol, rec, batch)
	return nil
}

// auditFed checks one federated round: per-cloud coverage on the exact
// instance the market cleared (local or premium-priced federated),
// payments dominating reports, the one-win-per-round rule applied
// federation-wide, and total accounting.
func (a *auditor) auditFed(t int, res *federation.RoundResult) {
	var viol []Violation
	checks := 0
	checkf := func(invariant string, ok bool, format string, args ...any) {
		checks++
		if !ok {
			viol = append(viol, Violation{Round: t, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
		}
	}
	line := auditLine{Kind: "federation", T: t}
	wonBy := map[int]int{}
	var social, pay float64
	for _, cr := range res.Clouds {
		if cr.Err != nil || cr.Outcome == nil || cr.Instance == nil || cr.Instance.TotalDemand() == 0 {
			continue
		}
		checks++
		if err := core.VerifyFeasible(cr.Instance, cr.Outcome); err != nil {
			viol = append(viol, Violation{Round: t, Invariant: "federation",
				Detail: fmt.Sprintf("cloud %d: %v", cr.Cloud, err)})
		}
		for _, w := range cr.Outcome.Winners {
			b := cr.Instance.Bids[w]
			checkf("federation", cr.Outcome.Payments[w] >= b.Price-auditEps,
				"cloud %d bidder %d paid %v below its (premium) price %v", cr.Cloud, b.Bidder, cr.Outcome.Payments[w], b.Price)
			if prev, dup := wonBy[b.Bidder]; dup {
				checkf("federation", false, "bidder %d won in clouds %d and %d the same round", b.Bidder, prev, cr.Cloud)
			}
			wonBy[b.Bidder] = cr.Cloud
		}
		checkf("federation", len(cr.Transfers) == 0 || cr.Federated,
			"cloud %d has %d transfers without federating", cr.Cloud, len(cr.Transfers))
		social += cr.Outcome.SocialCost
		pay += cr.Outcome.TotalPayment()
	}
	checkf("federation", math.Abs(social-res.SocialCost) <= auditEps,
		"cloud social costs sum to %v, round reports %v", social, res.SocialCost)
	checkf("federation", math.Abs(pay-res.TotalPayment) <= auditEps,
		"cloud payments sum to %v, round reports %v", pay, res.TotalPayment)

	line.SocialCost = res.SocialCost
	line.TotalPay = res.TotalPayment
	line.Bids = res.BorrowedSlots
	a.checks += checks
	line.Checks = checks
	line.Violations = viol
	a.finishLine(t, line, viol, nil, nil)
}

// finishLine records violations, writes the audit line, and dumps the
// offending round's evidence when asked to.
func (a *auditor) finishLine(t int, line auditLine, viol []Violation, rec *platform.AuditRecord, batch []obs.Event) {
	a.mu.Lock()
	a.violations = append(a.violations, viol...)
	a.mu.Unlock()
	if a.enc != nil {
		if err := a.enc.Encode(line); err != nil && a.logger != nil {
			a.logger.Printf("chaos: write audit line: %v", err)
		}
	}
	if len(viol) == 0 {
		return
	}
	if a.logger != nil {
		for _, v := range viol {
			a.logger.Printf("chaos: VIOLATION %s", v)
		}
	}
	if a.dumpDir == "" {
		return
	}
	path, err := a.dump(t, viol, rec, batch)
	if err != nil {
		if a.logger != nil {
			a.logger.Printf("chaos: dump round %d: %v", t, err)
		}
		return
	}
	a.mu.Lock()
	a.dumps = append(a.dumps, path)
	a.mu.Unlock()
	if a.logger != nil {
		a.logger.Printf("chaos: round %d evidence dumped to %s", t, path)
		a.logger.Printf("chaos: repro: go run ./cmd/chaos -scenario %s -seed %d -rounds %d", a.sc.Name, a.sc.Seed, t)
	}
}

// dumpEvent pairs a trace event with its kind so the dump is
// self-describing.
type dumpEvent struct {
	Kind  string    `json:"kind"`
	Event obs.Event `json:"event"`
}

// roundDump is the one-command-repro evidence file for a violated round.
type roundDump struct {
	Scenario   string                `json:"scenario"`
	Seed       int64                 `json:"seed"`
	Round      int                   `json:"round"`
	Violations []Violation           `json:"violations"`
	Record     *platform.AuditRecord `json:"record,omitempty"`
	Trace      []dumpEvent           `json:"trace,omitempty"`
}

func (a *auditor) dump(t int, viol []Violation, rec *platform.AuditRecord, batch []obs.Event) (string, error) {
	if err := os.MkdirAll(a.dumpDir, 0o755); err != nil {
		return "", err
	}
	d := roundDump{Scenario: a.sc.Name, Seed: a.sc.Seed, Round: t, Violations: viol, Record: rec}
	for _, ev := range batch {
		d.Trace = append(d.Trace, dumpEvent{Kind: ev.EventKind(), Event: ev})
	}
	path := filepath.Join(a.dumpDir, fmt.Sprintf("%s-round%04d.json", a.sc.Name, t))
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// filterExcluded rebuilds the candidate instance the kernel actually ran
// on: the original minus the capacity/window-excluded bid indices. The
// returned map translates original bid indices to filtered ones.
func filterExcluded(ins *core.Instance, scaled []float64, excluded []int) (*core.Instance, []float64, map[int]int) {
	drop := map[int]bool{}
	for _, i := range excluded {
		drop[i] = true
	}
	f := &core.Instance{Demand: ins.Demand}
	var fScaled []float64
	toFiltered := map[int]int{}
	for i, b := range ins.Bids {
		if drop[i] {
			continue
		}
		toFiltered[i] = len(f.Bids)
		f.Bids = append(f.Bids, b)
		fScaled = append(fScaled, scaled[i])
	}
	return f, fScaled, toFiltered
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
