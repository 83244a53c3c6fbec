// Command perfbench is the repository's benchmark. It runs one workload
// from a seed, checks every output, and prints each metric by name with
// its unit, ending with one JSON line:
//
//	perfbench -workload offline-optimum -seed 1 -seconds 15 -trace 0
//
// Workloads:
//
//	offline-optimum  MSOA round + branch-and-bound offline optimum on
//	                 Figure 5(a)-shaped scenarios (the reproduction path)
//	platform-fanin   20k agents, 1 static bid each: bid decode and ingest
//	platform-settle  2k agents x 4 dynamic bids, 40 needy, WAL on:
//	                 selection, payments, WAL and award fan-out
//
// With -trace 0 it reports the end-to-end metrics of an untraced run.
// With -trace 1 it runs the workload untraced and then traced, and
// reports the per-layer metrics, the tracing overhead, and writes the
// spans to the scratch directory. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"offline-optimum", "platform-fanin", "platform-settle"}

// phase is one timed run of a workload.
type phase interface {
	endToEnd(vals map[string]float64)
	perLayer(vals map[string]float64)
	counts() (attempted, failed int, failures []string)
	digestLine() string
	untracedLayer(vals map[string]float64)
	rounds() int
	writeSpans(path string) error
}

// phaseCommon is what every phase records: the timed rounds, the set-up
// times, the checks, and in a traced phase the spans and tracer events.
type phaseCommon struct {
	clock     roundClock
	setup     []float64 // s, one per set-up
	attempted int
	failed    int
	failures  []string // the first few, for the report
	spans     *spanLog
	events    *eventCounter
}

func (c *phaseCommon) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *phaseCommon) counts() (int, int, []string) { return c.attempted, c.failed, c.failures }

func (c *phaseCommon) untracedLayer(vals map[string]float64) { c.clock.untracedLayer(vals) }

func (c *phaseCommon) rounds() int { return c.clock.rounds() }

func (c *phaseCommon) writeSpans(path string) error { return c.spans.write(path) }

func (c *phaseCommon) endToEnd(vals map[string]float64) {
	c.clock.endToEnd(vals)
	vals["setup_s"] = quantile(append([]float64(nil), c.setup...), 0.5)
	vals["ok_share"] = 1 - float64(c.failed)/float64(max(c.attempted, 1))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: offline-optimum, platform-fanin or platform-settle")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	scratch := fs.String("scratch", ".bench_build", "directory for the WAL and the span log")
	tiny := fs.Bool("tiny", false, "tiny workload sizes, for the benchmark's self-tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	runPhase, params, err := lookup(*name, *tiny, *scratch)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "params %+v\n", params)

	untraced, err := runPhase(*seed, *seconds, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	phases := []phase{untraced}
	if *trace == 1 {
		traced, err := runPhase(*seed, *seconds, true)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		phases = append(phases, traced)
	}

	attempted, failed := 0, 0
	e2e := make([]map[string]float64, len(phases))
	for i, ph := range phases {
		a, f, failures := ph.counts()
		attempted += a
		failed += f
		for _, msg := range failures {
			fmt.Fprintf(stdout, "check failed: %s\n", msg)
		}
		e2e[i] = map[string]float64{}
		ph.endToEnd(e2e[i])
		label := [...]string{"untraced", "traced"}[i]
		fmt.Fprintf(stdout, "timed %s rounds=%d\n", label, ph.rounds())
		fmt.Fprintf(stdout, "digest %s %s\n", label, ph.digestLine())
		if *trace == 1 {
			for _, d := range endToEnd {
				fmt.Fprintf(stdout, "%s %-28s %14.6f %s\n", label, d.Name, e2e[i][d.Name], d.Unit)
			}
		}
	}

	defs, vals := endToEnd, e2e[0]
	if *trace == 1 {
		traced := phases[1]
		defs, vals = perLayer, zeroLayers()
		traced.perLayer(vals)
		untraced.untracedLayer(vals)
		base, withSpans := e2e[0]["round_ms_p50"], e2e[1]["round_ms_p50"]
		vals["trace.overhead_round_ms_p50"] = withSpans - base
		vals["trace.overhead_pct"] = (withSpans/base - 1) * 100
		path := filepath.Join(*scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := traced.writeSpans(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	res, err := newResult(defs, vals, attempted, failed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printReport(stdout, defs, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// lookup resolves a workload name to the function running one phase of
// it and the parameters it runs with.
func lookup(name string, tiny bool, scratch string) (func(seed int64, seconds float64, traced bool) (phase, error), any, error) {
	size := 0
	if tiny {
		size = 1
	}
	platforms := map[string][2]platformParams{
		"platform-fanin":  {faninFull, faninTiny},
		"platform-settle": {settleFull, settleTiny},
	}
	if name == "offline-optimum" {
		p := [2]offlineParams{offlineFull, offlineTiny}[size]
		return func(seed int64, seconds float64, traced bool) (phase, error) {
			return runOffline(p, seed, seconds, traced), nil
		}, p, nil
	}
	if sizes, ok := platforms[name]; ok {
		p := sizes[size]
		return func(seed int64, seconds float64, traced bool) (phase, error) {
			return runPlatform(p, seed, seconds, traced, scratch)
		}, p, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// zeroLayers starts every per-layer metric at 0: a layer the workload
// never calls reports no work.
func zeroLayers() map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	return vals
}

// outcomeDigest summarizes a run's outcomes so two runs of one seed can be
// compared byte for byte.
type outcomeDigest struct {
	Rounds, Exact, Count int
	Cost, Second         float64
	h                    hash.Hash
}

func newDigest() outcomeDigest { return outcomeDigest{h: sha256.New()} }

// add folds in one round: its social cost, a second cost (the optimum, or
// the payments), whether it was proven exact, and a count (B&B nodes, or
// awards).
func (d *outcomeDigest) add(cost, second float64, exact bool, count int) {
	d.Rounds++
	d.Cost += cost
	d.Second += second
	d.Count += count
	var buf [25]byte
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(cost))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(second))
	binary.LittleEndian.PutUint64(buf[16:], uint64(count))
	if exact {
		d.Exact++
		buf[24] = 1
	}
	d.h.Write(buf[:])
}

func (d *outcomeDigest) sum() string {
	if d.h == nil {
		return "none"
	}
	return fmt.Sprintf("%x", d.h.Sum(nil)[:12])
}
