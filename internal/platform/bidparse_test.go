package platform

import (
	"bytes"
	"encoding/json"
	"net"
	"strconv"
	"testing"
)

// fleetBatch builds a multiplexed bid batch shaped like the loadgen
// fleet's: agents first..first+count-1, alts bids each, prices, covers
// and units pure functions of (agent, round, alt).
func fleetBatch(first, count, alts, t, d int) *BidSubmitMsg {
	msg := &BidSubmitMsg{T: t}
	for id := first; id < first+count; id++ {
		ab := AgentBids{Agent: id}
		for alt := 0; alt < alts; alt++ {
			k := (id + alt) % d
			covers := []int{k}
			if d > 1 && (id+t)%3 == 0 {
				covers = append(covers, (k+1)%d)
			}
			ab.Bids = append(ab.Bids, WireBid{
				Alt: alt, Price: float64(5 + (id*7+t*13+alt*29)%60),
				Covers: covers, Units: 1 + (id+t)%3,
			})
		}
		msg.Multi = append(msg.Multi, ab)
	}
	return msg
}

func bidLine(tb testing.TB, msg *BidSubmitMsg) []byte {
	tb.Helper()
	line, err := encodeEnvelope(&Envelope{Type: TypeBid, Bid: msg})
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

// staticLine splices the round tag into a t=0 batch the way the fleet's
// static-bid path does.
func staticLine(tb testing.TB, msg *BidSubmitMsg, t int) []byte {
	tb.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		tb.Fatal(err)
	}
	line := strconv.AppendInt([]byte(`{"type":"bid","bid":{"t":`), int64(t), 10)
	line = append(line, body[len(`{"t":0`):]...)
	return append(line, '}', '\n')
}

// decodeSeeds is the fuzz seed corpus: fleet static and dynamic batches,
// single-agent lines, and number and shape edge cases on both sides of
// the canonical boundary.
func decodeSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{
		bidLine(tb, fleetBatch(1, 8, 1, 0, 4)),
		staticLine(tb, fleetBatch(1, 8, 1, 0, 4), 17),
		bidLine(tb, fleetBatch(101, 6, 4, 9, 40)),
		bidLine(tb, &BidSubmitMsg{T: 3, Bids: []WireBid{{Alt: 1, Price: 12.75, Covers: []int{0, 2}, Units: 2}}}),
		bidLine(tb, &BidSubmitMsg{T: 4, Bids: []WireBid{{Price: 1e-7, Covers: []int{}}, {Alt: 2, Price: 3e21}}}),
		[]byte(`{"bid":{"bids":[{"units":1,"covers":[0],"price":5,"alt":0}],"t":2},"type":"bid"}` + "\n"),
		[]byte(`{"type":"bid","bid":{"t":-0,"bids":[{"alt":-0,"price":-0,"covers":[-0],"units":1}]}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"bids":[{"alt":0,"price":1e-3,"covers":[0],"units":1}]}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"bids":[{"alt":0,"price":1E+2,"covers":[0],"units":1}]}}`),
		[]byte(`{"type":"bid","bid":{"t":1234567890123456789,"bids":[]}}`),
		[]byte(`{"type":"bid","bid":{"t":-9223372036854775808,"multi":[]}}`),
		[]byte(`{"type":"bid","bid":{"t":99999999999999999999}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"multi":[{"agent":3,"bids":[]}]}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"multi":[{"agent":3,"bids":null}]}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"bids":[{"covers":null}]}}`),
		[]byte(`{"type":"bid","bid":null}`),
		[]byte(`{"type":"bid","bid":{}}`),
		[]byte(`{"type":"bid"}`),
		[]byte(`{"type":"bid","bid":{"t":1.5}}`),
		[]byte(`{"type":"bid","bid":{"t":1e2}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"bids":[{"price":1e400}]}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"bids":[{"alt":1}],"bids":[{"units":2}]}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"T":2}}`),
		[]byte(`{"type":"bid","bid":{"t":1,"extra":2}}`),
		[]byte(`{"type":"bid", "bid":{"t":1}}`),
		[]byte(`{"type":"bid","bid":{"t":1}}`),
		[]byte(`{"type":"hello","hello":{"agent_id":1,"capacity":0}}`),
		[]byte(`{"type":"bid","bid":{"t":01}}`),
		[]byte(`{"type":"bid","bid":{"t":1}}garbage`),
		[]byte(`not json`),
	}
	return seeds
}

// staleLine is a large multi-alternative batch carrying both a Multi and
// a single-agent Bids list. Decoding it first fills an envelope's reused
// storage with values a later line must not inherit.
func staleLine(tb testing.TB) []byte {
	msg := fleetBatch(7, 12, 3, 5, 6)
	msg.Bids = fleetBatch(900, 1, 5, 2, 6).Multi[0].Bids
	return bidLine(tb, msg)
}

func staleEnvelope(tb testing.TB, stale []byte) Envelope {
	var env Envelope
	if !decodeCanonicalBid(&env, stale) {
		tb.Fatal("stale batch did not take the canonical path")
	}
	return env
}

func marshalEnvelope(tb testing.TB, env *Envelope) []byte {
	tb.Helper()
	data, err := json.Marshal(env)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeEnvelope: whenever the canonical bid parser accepts a line —
// into a fresh envelope or into one holding a previous batch's storage —
// the result must equal a fresh json.Unmarshal of that line. Results are
// compared as re-marshalled bytes, so nil and empty omitempty slices
// count as equal.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	stale := staleLine(f)
	f.Fuzz(func(t *testing.T, line []byte) {
		var fresh Envelope
		freshOK := decodeCanonicalBid(&fresh, line)
		reused := staleEnvelope(t, stale)
		reusedOK := decodeCanonicalBid(&reused, line)
		if freshOK != reusedOK {
			t.Fatalf("acceptance depends on the envelope's prior state: fresh %v, reused %v", freshOK, reusedOK)
		}
		if !freshOK {
			return
		}
		var want Envelope
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("canonical parser accepted a line encoding/json rejects (%v): %q", err, line)
		}
		wantJSON := marshalEnvelope(t, &want)
		for name, got := range map[string]*Envelope{"fresh": &fresh, "reused": &reused} {
			if gotJSON := marshalEnvelope(t, got); !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s envelope decoded %q\n got %s\nwant %s", name, line, gotJSON, wantJSON)
			}
		}
	})
}

// TestCanonicalBidLinesTakeFastPath: everything json.Marshal and the
// fleet emit for a bid envelope is canonical, so the ingest loop never
// falls back to reflection for them.
func TestCanonicalBidLinesTakeFastPath(t *testing.T) {
	lines := [][]byte{
		bidLine(t, fleetBatch(1, 50, 1, 0, 4)),
		staticLine(t, fleetBatch(1, 50, 1, 0, 4), 123456),
		bidLine(t, fleetBatch(1, 20, 4, 7, 40)),
		bidLine(t, &BidSubmitMsg{T: 1, Bids: []WireBid{{Alt: 2, Price: 0.1 + 0.2, Covers: []int{3}, Units: 1}}}),
		bidLine(t, &BidSubmitMsg{}),
	}
	env := staleEnvelope(t, staleLine(t))
	for _, line := range lines {
		if !decodeCanonicalBid(&env, line) {
			t.Fatalf("canonical line fell back to encoding/json: %q", line)
		}
	}
}

// TestCanonicalBidDecodeAllocatesNothing: once an envelope has held a
// batch of a given shape, decoding the next one allocates nothing.
func TestCanonicalBidDecodeAllocatesNothing(t *testing.T) {
	a := bidLine(t, fleetBatch(1, 200, 4, 3, 40))
	b := bidLine(t, fleetBatch(1, 200, 4, 4, 40))
	var env Envelope
	if !decodeCanonicalBid(&env, a) || !decodeCanonicalBid(&env, b) {
		t.Fatal("batch did not take the canonical path")
	}
	allocs := testing.AllocsPerRun(20, func() {
		decodeCanonicalBid(&env, a)
		decodeCanonicalBid(&env, b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %v times per pair of batches", allocs)
	}
}

// TestRecvIntoDoesNotInheritOmittedFields is the regression test for
// decoding into a reused envelope: a second message on the same
// connection that omits fields must decode exactly as a fresh envelope
// would (agent 0, units 0), not inherit the first message's agent 7 and
// units 5 — on the canonical path and on the encoding/json fallback.
func TestRecvIntoDoesNotInheritOmittedFields(t *testing.T) {
	first := `{"type":"bid","bid":{"t":1,"multi":[{"agent":7,"bids":[{"alt":0,"price":9,"covers":[0,1],"units":5}]}]}}`
	for name, second := range map[string]string{
		"canonical": `{"type":"bid","bid":{"t":2,"multi":[{"bids":[{"alt":1,"price":4,"covers":[1]}]}]}}`,
		"fallback":  `{"type":"bid", "bid":{"t":2,"multi":[{"bids":[{"alt":1,"price":4,"covers":[1]}]}]}}`,
	} {
		t.Run(name, func(t *testing.T) {
			server, client := net.Pipe()
			defer server.Close()
			defer client.Close()
			go func() { _, _ = client.Write([]byte(first + "\n" + second + "\n")) }()
			c := newConn(server)
			var env Envelope
			var buf []byte
			for _, line := range []string{first, second} {
				if err := c.recvInto(&env, &buf, 0); err != nil {
					t.Fatal(err)
				}
				var want Envelope
				if err := json.Unmarshal([]byte(line), &want); err != nil {
					t.Fatal(err)
				}
				if got, want := marshalEnvelope(t, &env), marshalEnvelope(t, &want); !bytes.Equal(got, want) {
					t.Fatalf("reused envelope decoded\n %s\nfresh decode gives\n %s", got, want)
				}
			}
			if ab := env.Bid.Multi[0]; ab.Agent != 0 || ab.Bids[0].Units != 0 {
				t.Fatalf("second message decoded as agent %d units %d, want 0 and 0", ab.Agent, ab.Bids[0].Units)
			}
		})
	}
}

// BenchmarkDecodeBidBatch compares the canonical parser with
// encoding/json on one fleet session's static batch (1000 agents).
func BenchmarkDecodeBidBatch(b *testing.B) {
	line := staticLine(b, fleetBatch(1, 1000, 1, 0, 4), 42)
	b.Run("canonical", func(b *testing.B) {
		var env Envelope
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !decodeCanonicalBid(&env, line) {
				b.Fatal("fell back")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		var env Envelope
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env = Envelope{}
			if err := json.Unmarshal(line, &env); err != nil {
				b.Fatal(err)
			}
		}
	})
}
