package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
)

// MSOAState is a serializable snapshot of the online mechanism's
// cross-round state: the per-bidder dual variables ψ_i, the consumed
// capacity slots χ_i, and the aggregate summary accumulated so far. It is
// everything MSOA carries between rounds — a mechanism restored from a
// state produced by Snapshot selects, pays, and updates ψ exactly like
// the original would have, which is what makes the platform's
// write-ahead-log recovery (internal/platform.Recover) exact.
//
// The encoding is canonical: bidder entries are sorted by id and floats
// round-trip bit-exactly through encoding/json's shortest representation,
// so two identical states marshal to identical bytes and Hash is a stable
// fingerprint.
type MSOAState struct {
	// Bidders holds one entry per bidder with non-zero dual state, sorted
	// ascending by id.
	Bidders []PsiEntry `json:"bidders,omitempty"`
	// Summary is the aggregate outcome of every round folded into this
	// state (social cost, payments, round and winner counts).
	Summary OnlineSummary `json:"summary"`
}

// PsiEntry is one bidder's dual state inside an MSOAState.
type PsiEntry struct {
	// Bidder is the bidder id.
	Bidder int `json:"bidder"`
	// Psi is the dual variable ψ_i (0 if the bidder never won a
	// capacity-limited round).
	Psi float64 `json:"psi"`
	// Chi is χ_i, the lifetime coverage slots consumed so far.
	Chi int `json:"chi"`
}

// Snapshot captures the mechanism's current cross-round state. The result
// is independent of the MSOA (deep copy) and deterministic: entries are
// sorted by bidder id.
func (m *MSOA) Snapshot() *MSOAState {
	ids := make(map[int]bool, len(m.psi)+len(m.chi))
	for id, v := range m.psi {
		if v != 0 {
			ids[id] = true
		}
	}
	for id, v := range m.chi {
		if v != 0 {
			ids[id] = true
		}
	}
	st := &MSOAState{Summary: *m.Summary()}
	if len(ids) > 0 {
		st.Bidders = make([]PsiEntry, 0, len(ids))
		for id := range ids {
			st.Bidders = append(st.Bidders, PsiEntry{Bidder: id, Psi: m.psi[id], Chi: m.chi[id]})
		}
		sort.Slice(st.Bidders, func(i, j int) bool { return st.Bidders[i].Bidder < st.Bidders[j].Bidder })
	}
	return st
}

// RestoreMSOA builds an online auction whose dual state and aggregate
// summary continue from a snapshot. The config plays the same role as in
// NewMSOA — in particular Capacity/Windows maps may be live maps that keep
// learning registrations. A nil state is equivalent to NewMSOA.
func RestoreMSOA(cfg MSOAConfig, st *MSOAState) *MSOA {
	m := NewMSOA(cfg)
	if st == nil {
		return m
	}
	for _, e := range st.Bidders {
		if e.Psi != 0 {
			m.psi[e.Bidder] = e.Psi
		}
		if e.Chi != 0 {
			m.chi[e.Bidder] = e.Chi
		}
	}
	m.sum = st.Summary
	return m
}

// Hash returns a stable hex fingerprint of the state: SHA-256 over the
// canonical JSON encoding. Two mechanisms that processed the same rounds
// hash identically; any ψ/χ/summary divergence changes the hash. The WAL
// recovery path compares this against the hash logged per round.
func (st *MSOAState) Hash() string {
	data, err := json.Marshal(st)
	if err != nil {
		// MSOAState contains only ints, floats, and slices; Marshal cannot
		// fail on it. Keep the signature ergonomic.
		panic("core: marshal MSOAState: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Equal reports whether two states are exactly identical (bit-exact ψ,
// identical χ and summaries).
func (st *MSOAState) Equal(other *MSOAState) bool {
	if st == nil || other == nil {
		return st == other
	}
	if len(st.Bidders) != len(other.Bidders) || st.Summary != other.Summary {
		return false
	}
	for i, e := range st.Bidders {
		if other.Bidders[i] != e {
			return false
		}
	}
	return true
}
