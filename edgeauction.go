// Package edgeauction is an open reproduction of "Incentivizing
// Microservices for Online Resource Sharing in Edge Clouds" (Samanta, Jiao,
// Mühlhäuser, Wang — IEEE ICDCS 2019): a truthful, individually rational,
// polynomial-time online reverse-auction mechanism that lets an edge cloud
// platform reclaim resources from under-loaded microservices and reallocate
// them to overloaded ones.
//
// The package is a facade over the implementation packages: it re-exports
// the mechanism types and provides one-call entry points for the common
// workflows. The building blocks are:
//
//   - SSAM — the single-stage auction (Algorithm 1): greedy winner
//     selection for the NP-hard set-multicover winner selection problem,
//     critical-value (Myerson) payments, and a per-instance primal-dual
//     approximation certificate.
//   - MSOA — the multi-stage online auction (Algorithm 2): a sequence of
//     SSAM rounds glued by per-bidder dual variables ψ that protect each
//     microservice's remaining sharing capacity, achieving a constant
//     competitive ratio αβ/(β−1).
//   - Demand estimation (§III): waiting-time, processing-rate, and
//     request-rate indicators combined with AHP-derived weights.
//   - A mechanism registry that races SSAM against the alternatives the
//     paper argues against or that bound the design space: fixed and
//     posted prices, an overbooking double auction, and VCG.
//   - A discrete-event edge-cloud simulator, a workload generator
//     matching the paper's §V-A settings, an offline-optimal solver, and a
//     TCP auctioneer/agent platform.
//
// # Quick start
//
//	ins := edgeauction.GenerateInstance(42, edgeauction.InstanceConfig{Bidders: 25})
//	out, err := edgeauction.RunAuction(ins, edgeauction.Options{})
//	if err != nil { ... }
//	fmt.Println(out.SocialCost, out.TotalPayment())
//
// See examples/ for runnable programs and internal/experiments for the
// harness that regenerates every figure of the paper's evaluation.
package edgeauction

import (
	"context"
	"io"

	"edgeauction/internal/core"
	"edgeauction/internal/demand"
	"edgeauction/internal/experiments"
	"edgeauction/internal/obs"
	"edgeauction/internal/optimal"
	"edgeauction/internal/platform"
	"edgeauction/internal/sim"
	"edgeauction/internal/topology"
	"edgeauction/internal/workload"
)

// Error sentinels. Test these with errors.Is; they are the same values the
// implementation packages return, so wrapped errors match.
var (
	// ErrInfeasible reports that the submitted bids cannot cover the
	// residual demand (returned by RunAuction and per-round by MSOA).
	ErrInfeasible = core.ErrInfeasible
	// ErrProtocol reports a platform wire-protocol violation.
	ErrProtocol = platform.ErrProtocol
	// ErrOptimalInfeasible reports an infeasible exact offline solve.
	ErrOptimalInfeasible = optimal.ErrInfeasible
	// ErrBadInstance reports a malformed instance file.
	ErrBadInstance = workload.ErrBadInstance
	// ErrTruncated reports a torn trailing record in a JSONL trace, audit
	// log, or WAL — the crash cut. Readers return every complete preceding
	// record alongside it, so crash-cut logs stay usable.
	ErrTruncated = obs.ErrTruncated
	// ErrCrashed reports a scripted platform crash fired by
	// FaultInjection.Crash (chaos/crash-recovery harnesses).
	ErrCrashed = platform.ErrCrashed
	// ErrBadTopology reports an invalid service-topology definition
	// (YAML parse errors, unknown services, cycles, missing load sources).
	ErrBadTopology = workload.ErrBadTopology
	// ErrBadRequestTrace reports a malformed request-trace file (bad
	// header, mid-stream corruption, mismatched columns).
	ErrBadRequestTrace = workload.ErrBadRequestTrace
)

// Mechanism types (see internal/core for full documentation).
type (
	// Bid is one alternative bid (Ŝ, J_ij) submitted by a microservice.
	Bid = core.Bid
	// Instance is one single-stage winner selection problem.
	Instance = core.Instance
	// Outcome is the result of a winner selection mechanism run.
	Outcome = core.Outcome
	// Options configures a single-stage auction run.
	Options = core.Options
	// Round is the input to one stage of the online auction.
	Round = core.Round
	// MSOAConfig configures the multi-stage online auction.
	MSOAConfig = core.MSOAConfig
	// MSOA is the multi-stage online auction with persistent dual state.
	MSOA = core.MSOA
	// OnlineSummary aggregates an online run.
	OnlineSummary = core.OnlineSummary
	// BidderWindow bounds a bidder's participation to rounds [t⁻, t⁺].
	BidderWindow = core.BidderWindow
	// DualCertificate is SSAM's primal–dual approximation certificate.
	DualCertificate = core.DualCertificate
	// Variant identifies the MSOA flavours of §V (DA/RC/OA).
	Variant = core.Variant
	// VariantParams controls how variants transform a base scenario.
	VariantParams = core.VariantParams
	// RoundResult couples one online round's outcome with its scaled
	// prices and exclusions (returned by MSOA.RunRound; MSOA keeps no
	// history, only the running Summary).
	RoundResult = core.RoundResult
	// BudgetedOutcome extends Outcome with budget accounting.
	BudgetedOutcome = core.BudgetedOutcome
	// GreedyMetric selects the bid-ranking rule of the greedy loop.
	GreedyMetric = core.GreedyMetric
	// PaymentRule selects how winners are remunerated.
	PaymentRule = core.PaymentRule
	// MSOAState is a serializable checkpoint of an MSOA's persistent
	// state (ψ/χ per bidder plus the summary baseline); see MSOA.Snapshot
	// and RestoreOnlineAuction.
	MSOAState = core.MSOAState
	// PsiEntry is one bidder's dual state inside an MSOAState.
	PsiEntry = core.PsiEntry
	// IngestBuffer accumulates a round's bids shard-by-shard in the flat
	// layout the SSAM kernel consumes (see MSOA.RunRoundIngest).
	IngestBuffer = core.IngestBuffer
)

// Mechanism API types: the pluggable single-stage competitors raced by
// the arena. Every mechanism clears the same Instance→Outcome contract;
// MSOAConfig.Mechanism selects one by spec for online runs (the zero
// spec is SSAM and is bit-identical to the pre-API behaviour).
type (
	// Mechanism is a pluggable single-stage winner selection mechanism.
	Mechanism = core.Mechanism
	// ScaledMechanism is the extension SSAM-family mechanisms implement
	// to consume MSOA's ψ-scaled prices (and drive ψ updates).
	ScaledMechanism = core.ScaledMechanism
	// StatefulMechanism is the extension mechanisms with cross-round
	// state implement (MSOA resets them when it is rebuilt from scratch).
	StatefulMechanism = core.Stateful
	// SettlementReporter exposes a double auction's per-round settlement
	// for the penalty-bound auditor.
	SettlementReporter = core.SettlementReporter
	// MechanismSpec names a registered mechanism plus its parameters;
	// parse the flag syntax with ParseMechanismSpec.
	MechanismSpec = core.MechanismSpec
	// MechanismFactory builds a mechanism from a spec (see
	// RegisterMechanism).
	MechanismFactory = core.MechanismFactory
	// PostedPriceConfig parameterizes the (1−ε)-optimal posted-price
	// mechanism; PostedPrice is the mechanism itself.
	PostedPriceConfig = core.PostedPriceConfig
	PostedPrice       = core.PostedPrice
	// DoubleAuctionConfig parameterizes the futures+spot double auction
	// with overbooking; DoubleAuction is the (stateful) mechanism and
	// Settlement one round's futures-book settlement accounting.
	DoubleAuctionConfig = core.DoubleAuctionConfig
	DoubleAuction       = core.DoubleAuction
	Settlement          = core.Settlement
	// ExperimentConfig configures the experiment drivers (seeds, trials,
	// parallelism, the online mechanism under test, the arena's specs).
	ExperimentConfig = experiments.Config
	// ArenaResult is the head-to-head mechanism comparison; each
	// ArenaMechanism row aggregates one competitor's metrics.
	ArenaResult    = experiments.ArenaResult
	ArenaMechanism = experiments.ArenaMechanism
)

// Registered mechanism names for MechanismSpec.Name.
const (
	MechanismSSAM          = core.NameSSAM
	MechanismBudgetedSSAM  = core.NameBudgetedSSAM
	MechanismPostedPrice   = core.NamePostedPrice
	MechanismFixedPrice    = core.NameFixedPrice
	MechanismDoubleAuction = core.NameDoubleAuction
	MechanismVCG           = optimal.NameVCG
)

// Re-exported mechanism constants.
const (
	// VariantBase is plain MSOA with estimated demand.
	VariantBase = core.VariantBase
	// VariantDA is MSOA with oracle demand estimation.
	VariantDA = core.VariantDA
	// VariantRC is MSOA with relaxed capacities.
	VariantRC = core.VariantRC
	// VariantOA combines oracle demand and relaxed capacities.
	VariantOA = core.VariantOA

	// PricePerCoverage ranks bids by scaled price per marginal coverage
	// (the paper's rule); LowestPrice ignores coverage (ablation).
	PricePerCoverage = core.PricePerCoverage
	LowestPrice      = core.LowestPrice
	// CriticalValue pays winners their critical value (the paper's
	// truthful rule); FirstPrice pays the bid price (ablation).
	CriticalValue = core.CriticalValue
	FirstPrice    = core.FirstPrice
)

// Workload and simulation types.
type (
	// InstanceConfig parameterizes instance generation (§V-A defaults).
	InstanceConfig = workload.InstanceConfig
	// OnlineConfig parameterizes multi-round scenario generation.
	OnlineConfig = workload.OnlineConfig
	// Scenario is a drawn online workload (true + estimated rounds).
	Scenario = workload.Scenario
	// SimConfig parameterizes the discrete-event edge-cloud simulator.
	SimConfig = sim.Config
	// Simulator is the discrete-event edge cloud simulator.
	Simulator = sim.Simulator
	// DemandEstimator computes §III demand estimates.
	DemandEstimator = demand.Estimator
	// DemandConfig parameterizes the estimator.
	DemandConfig = demand.Config
	// Indicators is one round's observation of a microservice.
	Indicators = demand.Indicators
	// Weights are the AHP-derived indicator weights of §III.
	Weights = demand.Weights
	// Comparisons is the pairwise AHP comparison matrix.
	Comparisons = demand.Comparisons
	// AHPResult carries derived weights plus the consistency ratio.
	AHPResult = demand.AHPResult
	// Criterion indexes the three §III demand indicators.
	Criterion = demand.Criterion
	// Class distinguishes delay-sensitive from delay-tolerant services.
	Class = workload.Class
	// WorkDist selects the simulator's per-request work distribution.
	WorkDist = sim.WorkDist
	// Microservice is one simulated microservice's static description.
	Microservice = sim.Microservice
	// RoundReport is one simulated round's observed system state.
	RoundReport = sim.RoundReport
	// Bridge converts simulator reports into auction rounds.
	Bridge = sim.Bridge
	// BridgeConfig parameterizes the bridge.
	BridgeConfig = sim.BridgeConfig
	// AuctionRound is a simulator-derived auction round with estimates.
	AuctionRound = sim.AuctionRound
	// Topology is the simulated edge-cloud network.
	Topology = topology.Topology
	// TopologyConfig parameterizes topology generation.
	TopologyConfig = topology.Config
	// EdgeCloud is one edge cloud site.
	EdgeCloud = topology.EdgeCloud
	// User is one mobile user attached to an edge cloud.
	User = topology.User
	// Link is one backhaul link between edge clouds.
	Link = topology.Link
	// ServiceGraph is a call-graph service topology: services with work
	// requirements, error rates, and fan-out edges, plus external load
	// sources (entries and multi-step user flows). Feed it to the
	// simulator via SimConfig.Graph for topology-driven demand.
	ServiceGraph = workload.ServiceGraph
	// ServiceSpec is one service of a ServiceGraph.
	ServiceSpec = workload.ServiceSpec
	// CallSpec is one probabilistic call edge between services.
	CallSpec = workload.CallSpec
	// EntrySpec attaches an external arrival process to a service.
	EntrySpec = workload.EntrySpec
	// FlowSpec is a multi-step user flow visiting services in sequence.
	FlowSpec = workload.FlowSpec
	// ArrivalSpec is a composable arrival process (poisson, onoff,
	// diurnal, flash) with a pure per-round intensity function.
	ArrivalSpec = workload.ArrivalSpec
	// RequestTrace is a recorded per-round external arrival schedule,
	// exportable to and importable from JSONL (SimConfig.Trace).
	RequestTrace = workload.RequestTrace
	// RoundArrivals is one round's arrival counts inside a RequestTrace.
	RoundArrivals = workload.RoundArrivals
)

// Workload and simulation constants.
const (
	// DelaySensitive/DelayTolerant are the §V-A microservice classes.
	DelaySensitive = workload.DelaySensitive
	DelayTolerant  = workload.DelayTolerant
	// Work distributions for SimConfig.Work.
	WorkExponential   = sim.WorkExponential
	WorkPareto        = sim.WorkPareto
	WorkUniform       = sim.WorkUniform
	WorkDeterministic = sim.WorkDeterministic
	// ReserveBidderID is the first bidder id the simulator reserves for
	// the platform's own reserve supply.
	ReserveBidderID = sim.ReserveBidderID
)

// Platform types (distributed auctioneer/agents).
type (
	// PlatformServer is the auctioneer daemon.
	PlatformServer = platform.Server
	// PlatformServerConfig configures the auctioneer.
	PlatformServerConfig = platform.ServerConfig
	// Agent is a microservice-side client of the platform.
	Agent = platform.Agent
	// AgentConfig configures an agent.
	AgentConfig = platform.AgentConfig
	// BidPolicy decides an agent's bids for an announced round.
	BidPolicy = platform.BidPolicy
	// AnnounceMsg opens a bidding round on the wire.
	AnnounceMsg = platform.AnnounceMsg
	// WireBid is one alternative bid on the wire.
	WireBid = platform.WireBid
	// WireAward is one award as broadcast in a round result.
	WireAward = platform.WireAward
	// Award records a payment received by an agent.
	Award = platform.Award
	// RoundOutcome is the platform-visible result of one cleared round.
	RoundOutcome = platform.RoundOutcome
	// Audit appends one JSON line per cleared round to a writer.
	Audit = platform.Audit
	// AuditRecord is one round's audit entry.
	AuditRecord = platform.AuditRecord
	// AuditBid is one collected bid inside an audit record.
	AuditBid = platform.AuditBid
	// FaultInjection injects deterministic send/award faults into the
	// platform for tests and the chaos harness; zero value disables.
	FaultInjection = platform.FaultInjection
	// WAL is the platform's write-ahead log: each round's audit record is
	// appended and flushed BEFORE awards are announced, so a crashed
	// platform can be recovered exactly (see Recover).
	WAL = platform.WAL
	// RecoveredState is the result of Recover: restored mechanism state
	// plus where the round sequence resumes.
	RecoveredState = platform.RecoveredState
	// SnapshotFile is one on-disk state checkpoint (see WriteSnapshot).
	SnapshotFile = platform.SnapshotFile
	// AdmissionConfig is the platform's listener-edge admission control:
	// per-agent token-bucket rate limits, a flapping-agent circuit
	// breaker, and bounded per-round ingest. Zero value disables all.
	AdmissionConfig = platform.AdmissionConfig
	// RejectMsg is the typed backpressure reply sent when admission
	// control sheds a submission or registration.
	RejectMsg = platform.RejectMsg
	// AgentBids is one agent's bid set inside a multiplexed submission.
	AgentBids = platform.AgentBids
)

// Platform timeout defaults, applied when the corresponding
// PlatformServerConfig field is zero.
const (
	// DefaultBidDeadline is the bid-gathering deadline default (500ms).
	DefaultBidDeadline = platform.DefaultBidDeadline
	// DefaultWriteTimeout is the per-send timeout default (2s).
	DefaultWriteTimeout = platform.DefaultWriteTimeout

	// AuditKind/SnapshotKind tag audit-or-WAL records and snapshot files.
	AuditKind    = platform.AuditKind
	SnapshotKind = platform.SnapshotKind

	// Scripted platform crash points for FaultInjection.Crash: after bids
	// are gathered (nothing persisted), after the WAL append but before
	// awards are announced, and after awards are announced.
	CrashMidGather    = platform.CrashMidGather
	CrashPreAnnounce  = platform.CrashPreAnnounce
	CrashPostAnnounce = platform.CrashPostAnnounce

	// Typed reject causes carried by RejectMsg.Code.
	RejectRateLimited = platform.RejectRateLimited
	RejectQueueFull   = platform.RejectQueueFull
	RejectCircuitOpen = platform.RejectCircuitOpen
	RejectInvalidBid  = platform.RejectInvalidBid
)

// Observability types (see internal/obs). A Tracer receives typed events
// from every layer: the greedy selection and payment replays of SSAM, the
// round lifecycle and ψ updates of MSOA, and the platform's agent
// join/drop/timeout and bid round-trips. Tracing is off (and free) when
// no tracer is configured; tracers must be safe for concurrent use.
type (
	// Tracer receives auction observability events.
	Tracer = obs.Tracer
	// Event is the interface all trace events implement.
	Event = obs.Event
	// JSONLTracer writes one JSON line per event to a writer.
	JSONLTracer = obs.JSONL
	// TraceRecord is one decoded JSONL trace line.
	TraceRecord = obs.JSONLRecord
	// MultiTracer fans events out to several tracers.
	MultiTracer = obs.Multi
	// TraceRecorder is an in-memory tracer for tests and tools.
	TraceRecorder = obs.Recorder
	// RoundSink batches trace events into per-round slices for auditing.
	RoundSink = obs.RoundSink
	// Registry is a concurrency-safe set of named counters/histograms.
	Registry = obs.Registry
	// Counter is a monotonically increasing atomic counter.
	Counter = obs.Counter
	// LatencyHistogram is a bounded-bucket latency histogram.
	LatencyHistogram = obs.LatencyHistogram

	// Trace event payloads, one type per event kind.
	EventRoundOpen     = obs.RoundOpen
	EventRoundClose    = obs.RoundClose
	EventRoundAbort    = obs.RoundAbort
	EventGreedyPick    = obs.GreedyPick
	EventPaymentReplay = obs.PaymentReplay
	EventPsiUpdate     = obs.PsiUpdate
	EventCertificate   = obs.Certificate
	EventAgentJoin     = obs.AgentJoin
	EventAgentDrop     = obs.AgentDrop
	EventAgentTimeout  = obs.AgentTimeout
	EventBidReceived   = obs.BidReceived
	EventBidRejected   = obs.BidRejected
	EventStageLatency  = obs.StageLatency
	EventConfigDefault = obs.ConfigDefault
	EventSweep         = obs.Sweep
	EventSnapshot      = obs.Snapshot
	EventRecovery      = obs.Recovery
)

// RunAuction runs the single-stage auction mechanism SSAM (Algorithm 1) on
// an instance: winner selection, critical-value payments, and the
// primal–dual certificate. It returns core.ErrInfeasible if the bids
// cannot cover the demand. It is RunMechanism with the zero (SSAM) spec.
func RunAuction(ins *Instance, opts Options) (*Outcome, error) {
	return core.RunMechanism(MechanismSpec{}, ins, opts)
}

// RunMechanism builds the mechanism named by spec and clears the instance
// through it — the one-shot entry point of the Mechanism API. The zero
// spec is SSAM.
func RunMechanism(spec MechanismSpec, ins *Instance, opts Options) (*Outcome, error) {
	return core.RunMechanism(spec, ins, opts)
}

// NewMechanism builds the mechanism named by spec from the registry.
func NewMechanism(spec MechanismSpec) (Mechanism, error) {
	return core.NewMechanism(spec)
}

// RegisterMechanism adds a mechanism factory under a name; specs with
// that name then resolve to it everywhere (MSOA, the platform, the chaos
// auditor, the arena). It panics on duplicate names — registration is
// init-time wiring, not runtime configuration.
func RegisterMechanism(name string, f MechanismFactory) {
	core.RegisterMechanism(name, f)
}

// MechanismNames lists the registered mechanism names, sorted.
func MechanismNames() []string {
	return core.MechanismNames()
}

// ParseMechanismSpec parses the flag syntax "name:key=val,key=val", e.g.
// "posted-price:epsilon=0.05" or "double-auction:overbook=1.5".
func ParseMechanismSpec(s string) (MechanismSpec, error) {
	return core.ParseMechanismSpec(s)
}

// NewPostedPrice builds the (1−ε)-optimal posted-price mechanism: a
// price level chosen from the demand prior alone (never from reports),
// making truthful reporting a dominant strategy for single-bid bidders.
func NewPostedPrice(cfg PostedPriceConfig) *PostedPrice {
	return core.NewPostedPrice(cfg)
}

// NewDoubleAuction builds the futures+spot double auction with
// overbooking: sellers book discounted futures one round ahead, no-shows
// pay a penalty, and a spot stage covers the remainder.
func NewDoubleAuction(cfg DoubleAuctionConfig) *DoubleAuction {
	return core.NewDoubleAuction(cfg)
}

// VerifyPenaltyBound checks a double-auction settlement against its
// configured penalty bounds (auditor invariant; see internal/chaos).
func VerifyPenaltyBound(st *Settlement, cfg DoubleAuctionConfig) error {
	return core.VerifyPenaltyBound(st, cfg)
}

// RunArena races mechanism specs head-to-head on identical seeded online
// workloads, measuring social cost, platform outlay, competitive ratio
// against per-round offline optima, and truthfulness regret under
// misreport probes. Nil specs select DefaultArenaSpecs.
func RunArena(cfg ExperimentConfig, specs []MechanismSpec) (*ArenaResult, error) {
	cfg.ArenaSpecs = specs
	return experiments.Arena(cfg)
}

// DefaultArenaSpecs is the standard three-way race: SSAM, posted-price,
// and the double auction, at default parameters.
func DefaultArenaSpecs() []MechanismSpec {
	return experiments.DefaultArenaSpecs()
}

// NewOnlineAuction builds the multi-stage online auction MSOA
// (Algorithm 2) with zeroed dual state. Feed rounds with RunRound or Run.
func NewOnlineAuction(cfg MSOAConfig) *MSOA {
	return core.NewMSOA(cfg)
}

// OfflineOptimum computes the offline-optimal social cost of an instance
// with branch-and-bound (exact for paper-scale instances; see
// internal/optimal for bounded-effort options).
func OfflineOptimum(ins *Instance) (float64, error) {
	res, err := optimal.Solve(ins, optimal.Options{})
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// GenerateInstance draws one single-stage auction instance with the §V-A
// parameter defaults (prices U[10,35], demands U[10,40], J=2).
func GenerateInstance(seed int64, cfg InstanceConfig) *Instance {
	return workload.Instance(workload.NewRand(seed), cfg)
}

// GenerateScenario draws a multi-round online workload, including per-round
// true and estimated demands, bidder capacities, and participation windows.
func GenerateScenario(seed int64, cfg OnlineConfig) *Scenario {
	return workload.Online(workload.NewRand(seed), cfg)
}

// NewSimulator builds the discrete-event edge-cloud simulator.
func NewSimulator(cfg SimConfig) (*Simulator, error) {
	return sim.New(cfg)
}

// NewDemandEstimator builds a §III demand estimator; the zero config
// derives the indicator weights via AHP.
func NewDemandEstimator(cfg DemandConfig) (*DemandEstimator, error) {
	return demand.NewEstimator(cfg)
}

// StartPlatform starts the auctioneer daemon listening on addr
// (e.g. "127.0.0.1:0").
func StartPlatform(addr string, cfg PlatformServerConfig) (*PlatformServer, error) {
	return platform.NewServer(addr, cfg)
}

// DialPlatform connects and registers a microservice agent with the
// auctioneer at addr.
func DialPlatform(addr string, cfg AgentConfig) (*Agent, error) {
	return platform.Dial(addr, cfg)
}

// Trace event kinds (JSONL "kind" field) and cause strings.
const (
	KindRoundOpen     = obs.KindRoundOpen
	KindRoundClose    = obs.KindRoundClose
	KindRoundAbort    = obs.KindRoundAbort
	KindGreedyPick    = obs.KindGreedyPick
	KindPaymentReplay = obs.KindPaymentReplay
	KindPsiUpdate     = obs.KindPsiUpdate
	KindCertificate   = obs.KindCertificate
	KindAgentJoin     = obs.KindAgentJoin
	KindAgentDrop     = obs.KindAgentDrop
	KindAgentTimeout  = obs.KindAgentTimeout
	KindBidReceived   = obs.KindBidReceived
	KindConfigDefault = obs.KindConfigDefault
	KindSweep         = obs.KindSweep
	KindSnapshot      = obs.KindSnapshot
	KindRecovery      = obs.KindRecovery

	// Scopes distinguishing the platform round lifecycle from the
	// embedded mechanism's in round_open/round_close events.
	ScopeMSOA     = obs.ScopeMSOA
	ScopePlatform = obs.ScopePlatform

	// Agent drop causes.
	DropReadError     = obs.DropReadError
	DropWriteTimeout  = obs.DropWriteTimeout
	DropWelcomeFailed = obs.DropWelcomeFailed
	// Agent timeout causes.
	TimeoutDeadline  = obs.TimeoutDeadline
	TimeoutCancelled = obs.TimeoutCancelled
)

// WithTracer returns a copy of opts with the tracer installed; auctions
// run with the returned options emit greedy-pick, payment-replay, and
// certificate events to t. A nil t disables tracing.
func WithTracer(opts Options, t Tracer) Options {
	opts.Tracer = t
	return opts
}

// NewJSONLTracer builds a tracer appending one JSON line per event to w.
// Emit is safe for concurrent use; check Err after the run for write
// failures. Decode the stream with ReadTrace.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return obs.NewJSONL(w)
}

// ReadTrace decodes a JSONL trace stream written by a JSONLTracer.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	return obs.ReadJSONL(r)
}

// NewTracerRegistry builds an empty counter/histogram registry.
func NewTracerRegistry() *Registry {
	return obs.NewRegistry()
}

// RunBudgetedAuction runs the single-stage auction under a hard payment
// budget W (§IV's stopping rule): winners are accepted greedily while
// their critical-value payments fit the remaining budget. The outcome
// reports budget spent, uncovered demand, and budget-rejected bids.
func RunBudgetedAuction(ins *Instance, budget float64, opts Options) (*BudgetedOutcome, error) {
	return core.BudgetedSSAM(ins, budget, opts)
}

// RunOnlineAuction is a convenience loop: it builds an MSOA and feeds it
// every round of the scenario, returning the mechanism for inspection.
func RunOnlineAuction(cfg MSOAConfig, rounds []Round) *MSOA {
	m := core.NewMSOA(cfg)
	for _, r := range rounds {
		m.RunRound(r)
	}
	return m
}

// VerifyCertificate checks an outcome's primal–dual approximation
// certificate against the instance (Theorem 4). scaled may be nil for a
// single-stage run (raw prices are used).
func VerifyCertificate(ins *Instance, out *Outcome, scaled []float64) error {
	return core.VerifyCertificate(ins, out, scaled)
}

// SpotCheckCriticalValue independently re-derives the critical-value
// payment properties of one winning bid (consistency, pivotality/IR,
// report independence, and — for single-bid bidders — the exact
// threshold) by replaying the auction, returning the first violation.
func SpotCheckCriticalValue(ins *Instance, scaled []float64, opts Options, w int, payment float64) error {
	return core.SpotCheckCriticalValue(ins, scaled, opts, w, payment)
}

// DialPlatformContext is DialPlatform honoring ctx during the connection
// attempt and the registration handshake.
func DialPlatformContext(ctx context.Context, addr string, cfg AgentConfig) (*Agent, error) {
	return platform.DialContext(ctx, addr, cfg)
}

// NewAudit builds a round audit log appending JSON lines to w.
func NewAudit(w io.Writer) *Audit {
	return platform.NewAudit(w)
}

// NewAuditSink builds a round audit log delivering each record to fn
// synchronously on the round goroutine (after the round's trace events),
// for online auditors.
func NewAuditSink(fn func(*AuditRecord) error) *Audit {
	return platform.NewAuditSink(fn)
}

// NewRoundSink builds a tracer that batches the merged trace stream into
// per-platform-round event slices and hands each completed batch to
// flush. Pair with NewAuditSink to audit every round online.
func NewRoundSink(flush func(t int, events []Event)) *RoundSink {
	return obs.NewRoundSink(flush)
}

// ReadAuditLog decodes an audit stream written via
// PlatformServerConfig.Audit.
func ReadAuditLog(r io.Reader) ([]*AuditRecord, error) {
	return platform.ReadAudit(r)
}

// NewBridge builds the simulator→auction bridge that converts round
// reports into auction rounds using the §III demand estimator.
func NewBridge(s *Simulator, cfg BridgeConfig) (*Bridge, error) {
	return sim.NewBridge(s, cfg)
}

// ParseTopology parses a YAML service-topology definition (see
// internal/workload for the schema) and validates it.
func ParseTopology(data []byte) (*ServiceGraph, error) {
	return workload.ParseServiceGraph(data)
}

// LoadTopology reads and parses a YAML service-topology file.
func LoadTopology(path string) (*ServiceGraph, error) {
	return workload.LoadServiceGraph(path)
}

// BuiltinTopology returns a fresh copy of a named builtin service
// topology ("three-tier", "overload", "spikes", "frontier").
func BuiltinTopology(name string) (*ServiceGraph, error) {
	return workload.BuiltinGraph(name)
}

// BuiltinTopologyNames lists the builtin service topology names, sorted.
func BuiltinTopologyNames() []string {
	return workload.BuiltinGraphNames()
}

// WriteRequestTrace emits a request trace as JSONL (header line, then one
// record per round).
func WriteRequestTrace(w io.Writer, tr *RequestTrace) error {
	return workload.WriteRequestTrace(w, tr)
}

// ReadRequestTrace decodes a JSONL request trace. A torn final record
// returns the complete prefix alongside ErrTruncated (the crash cut);
// corruption anywhere earlier returns ErrBadRequestTrace.
func ReadRequestTrace(r io.Reader) (*RequestTrace, error) {
	return workload.ReadRequestTrace(r)
}

// RestoreOnlineAuction rebuilds an MSOA from a checkpoint taken with
// MSOA.Snapshot, so an online auction can continue across process
// restarts. A nil state is a fresh mechanism.
func RestoreOnlineAuction(cfg MSOAConfig, st *MSOAState) *MSOA {
	return core.RestoreMSOA(cfg, st)
}

// CreateWAL opens (appending) a write-ahead log at path. Wire it into
// PlatformServerConfig.WAL and every round is persisted before its awards
// are announced; fsync additionally syncs the file per append.
func CreateWAL(path string, fsync bool) (*WAL, error) {
	return platform.CreateWAL(path, fsync)
}

// Recover rebuilds platform state after a crash: it loads the newest
// valid snapshot under snapshotDir (either argument may be empty), replays
// the WAL records after it, asserts each record's state hash, and returns
// the state to resume from via PlatformServerConfig.Resume. A missing or
// empty WAL and no snapshot is a fresh start at round 1.
func Recover(walPath, snapshotDir string, cfg MSOAConfig) (*RecoveredState, error) {
	return platform.Recover(walPath, snapshotDir, cfg)
}

// WriteSnapshot atomically checkpoints mechanism state into dir, returning
// the snapshot file path. Pair with PlatformServer.SnapshotState.
func WriteSnapshot(dir string, round int, st *MSOAState) (string, error) {
	return platform.WriteSnapshot(dir, round, st)
}

// LoadLatestSnapshot returns the newest hash-valid snapshot in dir, or
// nil when none exists; corrupt snapshots are skipped in favor of older
// valid ones.
func LoadLatestSnapshot(dir string) (*SnapshotFile, error) {
	return platform.LoadLatestSnapshot(dir)
}

// LogicalClock stamps audit records with the round number instead of
// wall-clock time (Audit.WithClock), making seeded runs byte-identical.
func LogicalClock(t int) int64 {
	return platform.LogicalClock(t)
}

// ReplayRecord re-runs one audited round against a mechanism, first
// swapping in the capacity/window maps the record carries (WAL records
// carry them; plain audit records leave the caller's maps in force). Both
// WAL recovery and the chaos auditor's shadow mechanism use this.
func ReplayRecord(m *MSOA, rec *AuditRecord, capacity map[int]int, windows map[int]BidderWindow) *RoundResult {
	return platform.ReplayRecord(m, rec, capacity, windows)
}

// VerifyOutcome checks an outcome against the paper's proved properties:
// primal feasibility (Theorem 2) and individual rationality (Theorem 5).
// A non-nil error indicates a mechanism bug.
func VerifyOutcome(ins *Instance, out *Outcome) error {
	if err := core.VerifyFeasible(ins, out); err != nil {
		return err
	}
	return core.VerifyIndividualRationality(ins, out, nil)
}
