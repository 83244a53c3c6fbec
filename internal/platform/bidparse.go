package platform

import (
	"bytes"
	"strconv"
)

// decodeCanonicalBid decodes line into env when it is a canonical bid
// line: exactly what json.Marshal (and the loadgen fleet) emits for a
// bid envelope — {"type":"bid","bid":{...}} with no whitespace, no
// escapes, only the exact lowercase keys t, bids, multi, agent, alt,
// price, covers and units (in any order, none repeated), integers
// without fraction or exponent, and prices within float64 range. It
// reports false for anything else, leaving env in an unspecified state;
// the caller then decodes the line with encoding/json into a fresh
// envelope, which keeps every accept/reject decision and error text of
// the reflective decoder.
//
// On success env equals a fresh json.Unmarshal of the line, but reuses
// env.Bid and the capacity of its slices — including each element's
// Covers and inner Bids — from the previous message. Every element is
// zeroed before it is filled, so a key the peer omitted can never
// inherit a stale value. Prices are parsed with strconv.ParseFloat on
// the literal, as encoding/json does.
func decodeCanonicalBid(env *Envelope, line []byte) bool {
	p := wireParser{b: bytes.TrimRight(line, " \t\r\n")}
	bid := env.Bid
	if bid == nil {
		bid = new(BidSubmitMsg)
	}
	var seen uint8
	ok := p.object(func(key []byte) bool {
		switch string(key) {
		case "type":
			return first(&seen, 1) && p.literal(`"bid"`)
		case "bid":
			return first(&seen, 2) && p.submit(bid)
		}
		return false
	})
	if !ok || seen != 3 || p.i != len(p.b) {
		return false
	}
	*env = Envelope{Type: TypeBid, Bid: bid}
	return true
}

// wireParser is a cursor over one line for decodeCanonicalBid. Every
// method reports false on input outside the canonical subset.
type wireParser struct {
	b []byte
	i int
}

func (p *wireParser) byte(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *wireParser) literal(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// object parses {"key":value,...}, handing each key to field with the
// cursor on its value.
func (p *wireParser) object(field func(key []byte) bool) bool {
	if !p.byte('{') {
		return false
	}
	if p.byte('}') {
		return true
	}
	for {
		// Every known key is plain lowercase ASCII, so a key holding an
		// escape never matches and needs no unescaping.
		if !p.byte('"') {
			return false
		}
		n := bytes.IndexByte(p.b[p.i:], '"')
		if n < 0 {
			return false
		}
		key := p.b[p.i : p.i+n]
		p.i += n + 1
		if !p.byte(':') || !field(key) {
			return false
		}
		if p.byte('}') {
			return true
		}
		if !p.byte(',') {
			return false
		}
	}
}

// array parses [elem,...] into *out, reusing the storage of spare:
// elements within its capacity are reused (p.elem zeroes what it does
// not fill). An empty array yields an empty non-nil slice, as
// encoding/json does.
func array[T any](p *wireParser, out *[]T, spare []T) bool {
	dst := spare[:0]
	if !p.byte('[') {
		return false
	}
	if p.byte(']') {
		if dst == nil {
			dst = []T{}
		}
		*out = dst
		return true
	}
	for {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			var zero T
			dst = append(dst, zero)
		}
		if !p.elem(&dst[len(dst)-1]) {
			return false
		}
		if p.byte(']') {
			*out = dst
			return true
		}
		if !p.byte(',') {
			return false
		}
	}
}

// number returns the next JSON number literal, validated against the
// JSON grammar; isInt reports that it has no fraction and no exponent.
func (p *wireParser) number() (lit []byte, isInt bool) {
	start := p.i
	p.byte('-')
	switch {
	case p.byte('0'):
	case p.digits() == 0:
		return nil, false
	}
	isInt = true
	if p.byte('.') {
		isInt = false
		if p.digits() == 0 {
			return nil, false
		}
	}
	if p.byte('e') || p.byte('E') {
		isInt = false
		if !p.byte('+') {
			p.byte('-')
		}
		if p.digits() == 0 {
			return nil, false
		}
	}
	return p.b[start:p.i], isInt
}

func (p *wireParser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// intInto parses an integer literal of at most 18 digits (always within
// int64); longer ones, fractions and exponents are left to encoding/json.
func (p *wireParser) intInto(v *int) bool {
	lit, isInt := p.number()
	if !isInt {
		return false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		return false
	}
	n := 0
	for _, c := range lit {
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	*v = n
	return true
}

func (p *wireParser) floatInto(v *float64) bool {
	lit, _ := p.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*v = f
	return true
}

// elem parses one array element into v. It dispatches on the element
// type rather than taking a per-type function value, so the parser never
// escapes to an indirect call and decoding stays allocation-free.
func (p *wireParser) elem(v any) bool {
	switch v := v.(type) {
	case *int:
		return p.intInto(v)
	case *WireBid:
		return p.wireBid(v)
	case *AgentBids:
		return p.agentBids(v)
	}
	return false
}

// first records key bit k in seen and reports whether it was new. A
// repeated key is left to encoding/json, which decodes a repeated array
// into the first one's elements.
func first(seen *uint8, k uint8) bool {
	if *seen&k != 0 {
		return false
	}
	*seen |= k
	return true
}

// submit parses the bid message body into m, reusing its slices.
func (p *wireParser) submit(m *BidSubmitMsg) bool {
	bids, multi := m.Bids, m.Multi
	*m = BidSubmitMsg{Bids: bids[:0], Multi: multi[:0]}
	var seen uint8
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "t":
			return first(&seen, 1) && p.intInto(&m.T)
		case "bids":
			return first(&seen, 2) && array(p, &m.Bids, bids)
		case "multi":
			return first(&seen, 4) && array(p, &m.Multi, multi)
		}
		return false
	})
}

func (p *wireParser) agentBids(ab *AgentBids) bool {
	bids := ab.Bids
	*ab = AgentBids{}
	var seen uint8
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "agent":
			return first(&seen, 1) && p.intInto(&ab.Agent)
		case "bids":
			return first(&seen, 2) && array(p, &ab.Bids, bids)
		}
		return false
	})
}

func (p *wireParser) wireBid(wb *WireBid) bool {
	covers := wb.Covers
	*wb = WireBid{}
	var seen uint8
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "alt":
			return first(&seen, 1) && p.intInto(&wb.Alt)
		case "price":
			return first(&seen, 2) && p.floatInto(&wb.Price)
		case "covers":
			return first(&seen, 4) && array(p, &wb.Covers, covers)
		case "units":
			return first(&seen, 8) && p.intInto(&wb.Units)
		}
		return false
	})
}
