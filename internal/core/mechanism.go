package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file defines the pluggable Mechanism API: a first-class interface
// for single-stage winner selection, a process-wide registry keyed by
// name, and a serializable MechanismSpec that travels through MSOAConfig,
// platform.ServerConfig and chaos scenarios so every driver selects its
// mechanism the same way. SSAM and BudgetedSSAM are the first
// registrants; postedprice.go and doubleauction.go add the competitors,
// and internal/optimal registers VCG (binaries that do not link the exact
// solver do not list it).
//
// Contract (see DESIGN.md §13): Clear must be a deterministic function of
// (mechanism state, instance, options) — no wall clock, no global RNG —
// because the WAL replayer and the chaos shadow auditor re-execute rounds
// and compare outcomes bit-for-bit. Stateful mechanisms additionally
// promise that replaying the same round sequence from Reset reproduces
// the same state trajectory.

// Mechanism is a single-stage winner-selection mechanism over the
// kernel's instance types. Implementations must be deterministic: the
// same instance and options (and, for Stateful mechanisms, the same
// prior round sequence) must produce bit-identical outcomes.
type Mechanism interface {
	// Name returns the registry name of the mechanism.
	Name() string
	// Clear selects winners and payments for one instance. Prices are
	// taken raw from the bids. A mechanism that cannot cover the demand
	// returns ErrInfeasible (possibly wrapped).
	Clear(ins *Instance, opts Options) (*Outcome, error)
}

// ScaledMechanism is implemented by mechanisms of the SSAM family that
// understand MSOA's scaled prices ∇_ij. MSOA calls ClearScaled with the
// ψ-augmented prices and applies the Lemma-4 ψ update to winners; for
// plain Mechanisms it calls Clear with raw prices and leaves ψ untouched.
type ScaledMechanism interface {
	Mechanism
	// ClearScaled runs the mechanism on scaled prices aligned with
	// ins.Bids. SocialCost is still accounted with raw prices.
	ClearScaled(ins *Instance, scaled []float64, opts Options) (*Outcome, error)
}

// Stateful is implemented by mechanisms that carry state across rounds
// (e.g. the double auction's futures book). Reset returns the mechanism
// to its initial state; MSOA-owned mechanisms are reset only by
// constructing a fresh MSOA, so WAL replay from the start of the log
// reproduces the book (snapshot+suffix recovery remains SSAM-only — see
// DESIGN.md §13).
type Stateful interface {
	Mechanism
	// Reset discards all cross-round state.
	Reset()
}

// SettlementReporter is implemented by mechanisms that settle futures
// reservations (the double auction). The chaos auditor uses it to check
// the per-round penalty-bound invariant.
type SettlementReporter interface {
	Mechanism
	// LastSettlement returns the settlement report of the most recent
	// Clear call, or nil before the first round.
	LastSettlement() *Settlement
	// SettlementConfig returns the configuration the penalty bound is
	// checked against.
	SettlementConfig() DoubleAuctionConfig
}

// Mechanism registry names. The empty spec resolves to NameSSAM.
const (
	NameSSAM          = "ssam"
	NameBudgetedSSAM  = "budgeted-ssam"
	NamePostedPrice   = "posted-price"
	NameFixedPrice    = "fixed-price"
	NameDoubleAuction = "double-auction"
)

// MechanismSpec selects a mechanism by name plus its parameters. The
// zero value means SSAM; MSOA treats it as "no dispatch" and runs the
// historical ssamScaled path byte-for-byte. The struct is JSON-friendly
// so it can ride in chaos scenarios and server configs.
type MechanismSpec struct {
	// Name is the registry name; empty selects SSAM.
	Name string `json:"name,omitempty"`
	// Budget parameterizes NameBudgetedSSAM (the per-round payment
	// budget W).
	Budget float64 `json:"budget,omitempty"`
	// PostedPrice parameterizes NamePostedPrice; nil uses defaults.
	PostedPrice *PostedPriceConfig `json:"posted_price,omitempty"`
	// UnitPrice parameterizes NameFixedPrice (the price posted per unit
	// of useful coverage).
	UnitPrice float64 `json:"unit_price,omitempty"`
	// DoubleAuction parameterizes NameDoubleAuction; nil uses defaults.
	DoubleAuction *DoubleAuctionConfig `json:"double_auction,omitempty"`
}

// IsSSAM reports whether the spec resolves to the paper's SSAM (the
// default mechanism). SSAM-only auditor invariants (critical-value spot
// checks, certificates, ψ trajectories) are gated on this.
func (s MechanismSpec) IsSSAM() bool { return s.Name == "" || s.Name == NameSSAM }

// IsZero reports whether the spec is the zero value.
func (s MechanismSpec) IsZero() bool {
	return s.Name == "" && s.Budget == 0 && s.PostedPrice == nil && s.UnitPrice == 0 && s.DoubleAuction == nil
}

// String renders the spec in the "name:key=val,key=val" form accepted by
// ParseMechanismSpec.
func (s MechanismSpec) String() string {
	name := s.Name
	if name == "" {
		name = NameSSAM
	}
	var params []string
	if s.Budget != 0 {
		params = append(params, "budget="+strconv.FormatFloat(s.Budget, 'g', -1, 64))
	}
	if s.UnitPrice != 0 {
		params = append(params, "unit="+strconv.FormatFloat(s.UnitPrice, 'g', -1, 64))
	}
	if p := s.PostedPrice; p != nil {
		for _, kv := range []struct {
			k string
			v float64
		}{{"epsilon", p.Epsilon}, {"lo", p.PriceLo}, {"hi", p.PriceHi}, {"safety", p.Safety}} {
			if kv.v != 0 {
				params = append(params, kv.k+"="+strconv.FormatFloat(kv.v, 'g', -1, 64))
			}
		}
	}
	if d := s.DoubleAuction; d != nil {
		for _, kv := range []struct {
			k string
			v float64
		}{{"discount", d.Discount}, {"overbook", d.Overbook}, {"penalty", d.PenaltyRate}} {
			if kv.v != 0 {
				params = append(params, kv.k+"="+strconv.FormatFloat(kv.v, 'g', -1, 64))
			}
		}
	}
	if len(params) == 0 {
		return name
	}
	return name + ":" + strings.Join(params, ",")
}

// ParseMechanismSpec parses the "-mechanism" flag syntax shared by
// platformd, edgesim, repro and chaos: a registry name optionally
// followed by ":key=val,key=val" parameters. The empty string yields the
// zero spec (SSAM). Examples:
//
//	ssam
//	budgeted-ssam:budget=500
//	posted-price:epsilon=0.05,lo=10,hi=35
//	fixed-price:unit=12.5
//	double-auction:discount=0.9,overbook=1.25,penalty=0.5
func ParseMechanismSpec(s string) (MechanismSpec, error) {
	var spec MechanismSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	name, rest, hasParams := strings.Cut(s, ":")
	spec.Name = strings.TrimSpace(name)
	if !hasParams {
		return spec, spec.validateName()
	}
	params := make(map[string]float64)
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("core: mechanism spec %q: parameter %q is not key=val", s, kv)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return spec, fmt.Errorf("core: mechanism spec %q: parameter %q: %v", s, kv, err)
		}
		params[strings.TrimSpace(k)] = f
	}
	take := func(keys ...string) (float64, bool) {
		for _, k := range keys {
			if v, ok := params[k]; ok {
				delete(params, k)
				return v, true
			}
		}
		return 0, false
	}
	switch spec.Name {
	case NameSSAM, "":
	case NameBudgetedSSAM:
		if v, ok := take("budget"); ok {
			spec.Budget = v
		}
	case NamePostedPrice:
		cfg := &PostedPriceConfig{}
		if v, ok := take("epsilon", "eps"); ok {
			cfg.Epsilon = v
		}
		if v, ok := take("lo", "price_lo"); ok {
			cfg.PriceLo = v
		}
		if v, ok := take("hi", "price_hi"); ok {
			cfg.PriceHi = v
		}
		if v, ok := take("safety"); ok {
			cfg.Safety = v
		}
		spec.PostedPrice = cfg
	case NameFixedPrice:
		if v, ok := take("unit"); ok {
			spec.UnitPrice = v
		}
	case NameDoubleAuction:
		cfg := &DoubleAuctionConfig{}
		if v, ok := take("discount"); ok {
			cfg.Discount = v
		}
		if v, ok := take("overbook"); ok {
			cfg.Overbook = v
		}
		if v, ok := take("penalty", "penalty_rate"); ok {
			cfg.PenaltyRate = v
		}
		spec.DoubleAuction = cfg
	default:
		// Other registrants (VCG, test mechanisms) take no parameters;
		// reject any so typos fail loudly at the flag instead of at
		// round time.
		if len(params) > 0 {
			return spec, fmt.Errorf("core: mechanism spec %q: %s takes no parameters", s, spec.Name)
		}
	}
	if len(params) > 0 {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return spec, fmt.Errorf("core: mechanism spec %q: unknown parameter(s) %s", s, strings.Join(keys, ", "))
	}
	return spec, spec.validateName()
}

// validateName rejects spec names that are neither built-in nor
// registered at parse time.
func (s MechanismSpec) validateName() error {
	if s.Name == "" {
		return nil
	}
	if _, ok := lookupFactory(s.Name); !ok {
		return fmt.Errorf("core: unknown mechanism %q (have %s)", s.Name, strings.Join(MechanismNames(), ", "))
	}
	return nil
}

// MechanismSpecList is a flag.Value collecting the specs of a repeatable
// "-mechanism"-style flag, each parsed by ParseMechanismSpec.
type MechanismSpecList []MechanismSpec

// String renders the specs comma-separated.
func (l *MechanismSpecList) String() string {
	parts := make([]string, len(*l))
	for i, spec := range *l {
		parts[i] = spec.String()
	}
	return strings.Join(parts, ",")
}

// Set parses one more spec.
func (l *MechanismSpecList) Set(v string) error {
	spec, err := ParseMechanismSpec(v)
	if err != nil {
		return err
	}
	*l = append(*l, spec)
	return nil
}

// MechanismFactory builds a mechanism from a spec. Factories must return
// a fresh instance on every call: Stateful mechanisms hold per-run books.
type MechanismFactory func(spec MechanismSpec) (Mechanism, error)

var mechanisms = struct {
	sync.RWMutex
	byName map[string]MechanismFactory
}{byName: make(map[string]MechanismFactory)}

// RegisterMechanism adds a factory under name. Registering a duplicate
// name panics: the registry is process-global and silent replacement
// would make mechanism selection order-dependent.
func RegisterMechanism(name string, f MechanismFactory) {
	if name == "" || f == nil {
		panic("core: RegisterMechanism requires a name and a factory")
	}
	mechanisms.Lock()
	defer mechanisms.Unlock()
	if _, dup := mechanisms.byName[name]; dup {
		panic(fmt.Sprintf("core: mechanism %q registered twice", name))
	}
	mechanisms.byName[name] = f
}

func lookupFactory(name string) (MechanismFactory, bool) {
	mechanisms.RLock()
	defer mechanisms.RUnlock()
	f, ok := mechanisms.byName[name]
	return f, ok
}

// MechanismNames returns the registered names in sorted order.
func MechanismNames() []string {
	mechanisms.RLock()
	defer mechanisms.RUnlock()
	names := make([]string, 0, len(mechanisms.byName))
	for n := range mechanisms.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewMechanism resolves a spec to a fresh mechanism instance. The zero
// spec yields SSAM.
func NewMechanism(spec MechanismSpec) (Mechanism, error) {
	name := spec.Name
	if name == "" {
		name = NameSSAM
	}
	f, ok := lookupFactory(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown mechanism %q (have %s)", name, strings.Join(MechanismNames(), ", "))
	}
	return f(spec)
}

// RunMechanism is the one-shot entry point: resolve the spec, clear the
// instance, discard the mechanism. For the zero spec this is exactly
// SSAM. Stateful mechanisms start from a fresh book every call; use
// NewMechanism (or MSOA with MSOAConfig.Mechanism) to carry state across
// rounds.
func RunMechanism(spec MechanismSpec, ins *Instance, opts Options) (*Outcome, error) {
	mech, err := NewMechanism(spec)
	if err != nil {
		return nil, err
	}
	return mech.Clear(ins, opts)
}

// ssamMechanism adapts SSAM (Algorithm 1) to the Mechanism API.
type ssamMechanism struct{}

func (ssamMechanism) Name() string { return NameSSAM }

func (ssamMechanism) Clear(ins *Instance, opts Options) (*Outcome, error) {
	return SSAM(ins, opts)
}

func (ssamMechanism) ClearScaled(ins *Instance, scaled []float64, opts Options) (*Outcome, error) {
	return ssamScaled(ins, scaled, opts)
}

// budgetedSSAMMechanism adapts BudgetedSSAM. It is not a
// ScaledMechanism: the budget semantics are defined over raw payments.
type budgetedSSAMMechanism struct{ budget float64 }

func (budgetedSSAMMechanism) Name() string { return NameBudgetedSSAM }

// Clear returns the partial outcome with a wrapped ErrInfeasible when the
// budget runs out before the demand is covered, as the Mechanism contract
// asks of every mechanism that cannot cover the demand.
func (m budgetedSSAMMechanism) Clear(ins *Instance, opts Options) (*Outcome, error) {
	bo, err := BudgetedSSAM(ins, m.budget, opts)
	if err != nil {
		return nil, err
	}
	if bo.UncoveredDemand > 0 {
		return &bo.Outcome, fmt.Errorf("%w (budget %v exhausted with %d units uncovered)", ErrInfeasible, m.budget, bo.UncoveredDemand)
	}
	return &bo.Outcome, nil
}

func init() {
	RegisterMechanism(NameSSAM, func(MechanismSpec) (Mechanism, error) {
		return ssamMechanism{}, nil
	})
	RegisterMechanism(NameBudgetedSSAM, func(spec MechanismSpec) (Mechanism, error) {
		if spec.Budget <= 0 {
			return nil, fmt.Errorf("core: %s requires a positive budget (got %v)", NameBudgetedSSAM, spec.Budget)
		}
		return budgetedSSAMMechanism{budget: spec.Budget}, nil
	})
	RegisterMechanism(NamePostedPrice, func(spec MechanismSpec) (Mechanism, error) {
		var cfg PostedPriceConfig
		if spec.PostedPrice != nil {
			cfg = *spec.PostedPrice
		}
		return NewPostedPrice(cfg), nil
	})
	RegisterMechanism(NameFixedPrice, func(spec MechanismSpec) (Mechanism, error) {
		if !(spec.UnitPrice > 0) || math.IsInf(spec.UnitPrice, 0) {
			return nil, fmt.Errorf("core: %s requires a positive finite unit price (got %v)", NameFixedPrice, spec.UnitPrice)
		}
		return fixedPrice{unit: spec.UnitPrice}, nil
	})
	RegisterMechanism(NameDoubleAuction, func(spec MechanismSpec) (Mechanism, error) {
		var cfg DoubleAuctionConfig
		if spec.DoubleAuction != nil {
			cfg = *spec.DoubleAuction
		}
		return NewDoubleAuction(cfg), nil
	})
}
