package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"edgeauction/internal/core"
)

// Single-instance files carry one winner selection problem as a JSON
// document — the interchange format of cmd/wspsolve and a convenient way
// to snapshot a disputed round for offline analysis.

// instanceVersion identifies the on-disk format.
const instanceVersion = 1

// instanceDoc is the on-disk schema.
type instanceDoc struct {
	Kind    string      `json:"kind"` // always "edgeauction-instance"
	Version int         `json:"version"`
	Demand  []int       `json:"demand"`
	Bids    []bidRecord `json:"bids"`
}

type bidRecord struct {
	Bidder   int     `json:"bidder"`
	Alt      int     `json:"alt"`
	Price    float64 `json:"price"`
	TrueCost float64 `json:"true_cost,omitempty"`
	Covers   []int   `json:"covers"`
	Units    int     `json:"units"`
}

// ErrBadInstance reports a malformed instance document.
var ErrBadInstance = errors.New("workload: malformed instance file")

// WriteInstance serializes one instance as indented JSON.
func WriteInstance(w io.Writer, ins *core.Instance) error {
	doc := instanceDoc{
		Kind:    "edgeauction-instance",
		Version: instanceVersion,
		Demand:  ins.Demand,
	}
	for _, b := range ins.Bids {
		doc.Bids = append(doc.Bids, bidRecord{
			Bidder: b.Bidder, Alt: b.Alt, Price: b.Price,
			TrueCost: b.TrueCost, Covers: b.Covers, Units: b.Units,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("workload: encode instance: %w", err)
	}
	return nil
}

// ReadInstance parses an instance document and validates it.
func ReadInstance(r io.Reader) (*core.Instance, error) {
	var doc instanceDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	if doc.Kind != "edgeauction-instance" {
		return nil, fmt.Errorf("%w: unexpected kind %q", ErrBadInstance, doc.Kind)
	}
	if doc.Version != instanceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadInstance, doc.Version)
	}
	ins := &core.Instance{Demand: doc.Demand}
	for _, b := range doc.Bids {
		ins.Bids = append(ins.Bids, core.Bid{
			Bidder: b.Bidder, Alt: b.Alt, Price: b.Price,
			TrueCost: b.TrueCost, Covers: b.Covers, Units: b.Units,
		})
	}
	if err := ins.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	return ins, nil
}
