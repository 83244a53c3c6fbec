package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgeauction/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports all of them on an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rounds_per_s", "1/s"},
	{"round_ms_p50", "ms"},
	{"alloc_kb_per_round", "KiB"},
	{"heap_mb", "MiB"},
	{"ok_share", "share"},
}

// perLayer lists the per-layer metrics of a traced run (--trace 1). A
// layer a workload never calls reports 0. The tail round time is here, not
// among the end-to-end metrics, because on a shared host it moves with the
// host's contention by more than any bound on a regression could allow.
var perLayer = []metricDef{
	{"round_ms_p95", "ms"},
	{"optimal.solve_ms_p50", "ms"},
	{"optimal.solve_ms_p95", "ms"},
	{"optimal.nodes_per_solve", "count"},
	{"optimal.exact_share", "share"},
	{"optimal.us_per_node", "us"},
	{"lp.root_ms", "ms"},
	{"core.msoa_round_ms", "ms"},
	{"core.greedy_picks_per_round", "count"},
	{"core.payment_replays_per_round", "count"},
	{"platform.gather_ms", "ms"},
	{"platform.bids_per_round", "count"},
	{"platform.settle_ms", "ms"},
	{"platform.wal_append_ms", "ms"},
	{"platform.wal_bytes_per_round", "bytes"},
	{"platform.settle_other_ms", "ms"},
	{"workload.online_ms", "ms"},
	{"loadgen.bids_sent", "count"},
	{"loadgen.errs", "count"},
	{"loadgen.rejections", "count"},
	{"runtime.gc_cycles_per_round", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_round_ms_p50", "ms"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every metric of defs from vals; a metric missing from
// vals is a bug in the workload and is reported as an error.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (*result, error) {
	r := &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// printReport writes every metric of defs, one per line, followed by the
// result as one JSON line.
func printReport(w io.Writer, defs []metricDef, r *result) error {
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-32s %14.6f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "failed_share %g (%d failed of %d attempted)\n", share, r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// roundClock accumulates the timed rounds of one phase: each round's
// duration, the peak live heap sampled at round boundaries, and the
// memory statistics at the edges of the timed window.
type roundClock struct {
	durations []float64 // ms
	busy      time.Duration
	peakLive  uint64
	first     runtime.MemStats
	last      runtime.MemStats
	live      []metrics.Sample
	started   time.Time
}

// liveHeap is the heap the last garbage collection found reachable. Unlike
// HeapAlloc it excludes garbage not yet collected, so its peak does not
// depend on where collections happen to fall between samples.
const liveHeap = "/gc/heap/live:bytes"

// begin marks the start of the timed window. It collects garbage first,
// so the heap left by set-up or an earlier phase does not count.
func (c *roundClock) begin() {
	runtime.GC()
	runtime.ReadMemStats(&c.first)
	c.live = []metrics.Sample{{Name: liveHeap}}
	c.sampleHeap()
}

func (c *roundClock) sampleHeap() {
	metrics.Read(c.live)
	if c.live[0].Value.Kind() == metrics.KindUint64 {
		c.peakLive = max(c.peakLive, c.live[0].Value.Uint64())
	}
}

// roundStart starts the round's timer.
func (c *roundClock) roundStart() { c.started = time.Now() }

// roundEnd records the round begun by the last roundStart and samples
// the live heap.
func (c *roundClock) roundEnd() {
	d := time.Since(c.started)
	c.durations = append(c.durations, ms(d))
	c.busy += d
	c.sampleHeap()
}

// end marks the end of the timed window.
func (c *roundClock) end() { runtime.ReadMemStats(&c.last) }

func (c *roundClock) rounds() int { return len(c.durations) }

// endToEnd fills the timing, allocation and heap metrics. Allocation
// covers the whole window, so it includes what an in-process fleet
// allocates for the rounds.
func (c *roundClock) endToEnd(vals map[string]float64) {
	n := float64(c.rounds())
	d := append([]float64(nil), c.durations...)
	vals["rounds_per_s"] = n / c.busy.Seconds()
	vals["round_ms_p50"] = quantile(d, 0.50)
	vals["alloc_kb_per_round"] = float64(c.last.TotalAlloc-c.first.TotalAlloc) / 1024 / n
	vals["heap_mb"] = float64(c.peakLive) / (1 << 20)
}

// untracedLayer fills the per-layer metrics an untraced phase measures:
// the tail round time and the garbage collector's work.
func (c *roundClock) untracedLayer(vals map[string]float64) {
	n := float64(c.rounds())
	vals["round_ms_p95"] = quantile(append([]float64(nil), c.durations...), 0.95)
	vals["runtime.gc_cycles_per_round"] = float64(c.last.NumGC-c.first.NumGC) / n
	vals["runtime.gc_pause_ms"] = float64(c.last.PauseTotalNs-c.first.PauseTotalNs) / 1e6 / n
}

// span is one timed call into a layer. Spans of one round share Trace
// (the round number); Parent is the ID of the span that caused it, 0 for
// a root.
type span struct {
	Trace   int     `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced phases pay only a nil check.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span and returns its ID (0 on a nil log).
func (l *spanLog) open(trace, parent int, name string) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		Trace: trace, ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartUS: float64(time.Since(l.t0).Nanoseconds()) / 1e3,
	})
	return len(l.spans)
}

// close ends the span id.
func (l *spanLog) close(id int) {
	if l == nil {
		return
	}
	s := &l.spans[id-1]
	s.DurUS = float64(time.Since(l.t0).Nanoseconds())/1e3 - s.StartUS
}

// durations returns the durations in ms of every span called name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.DurUS/1e3)
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// eventCounter is the obs.Tracer the traced phases attach: it counts the
// mechanism's greedy picks and payment replays and keeps the platform's
// stage latencies.
type eventCounter struct {
	picks   atomic.Int64
	replays atomic.Int64
	stages  stageTimes
}

func (e *eventCounter) Emit(ev obs.Event) {
	switch ev := ev.(type) {
	case obs.GreedyPick:
		e.picks.Add(1)
	case obs.PaymentReplay:
		e.replays.Add(1)
	case obs.StageLatency:
		e.stages.add(ev.Stage, float64(ev.DurationMicros)/1e3)
	}
}

// reset drops the counts of the warm-up rounds.
func (e *eventCounter) reset() {
	e.picks.Store(0)
	e.replays.Store(0)
	e.stages.reset()
}

// stageTimes collects the platform's per-round stage latencies.
type stageTimes struct {
	mu sync.Mutex
	ms map[string][]float64
}

func (s *stageTimes) add(stage string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ms == nil {
		s.ms = make(map[string][]float64)
	}
	s.ms[stage] = append(s.ms[stage], v)
}

func (s *stageTimes) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ms = nil
}

func (s *stageTimes) get(stage string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms[stage]...)
}
