package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"edgeauction/internal/core"
	"edgeauction/internal/optimal"
	"edgeauction/internal/platform"
	"edgeauction/internal/workload"
)

// runTiny runs one workload at its tiny size and returns the stdout
// lines and the parsed result line.
func runTiny(t *testing.T, name string, trace string) ([]string, *result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", name, "-seed", "3", "-seconds", "0.2", "-trace", trace,
		"-tiny", "-scratch", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	return lines, &res
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced and
// traced, and checks that the result names every metric with its unit
// and that all checks passed.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			lines, res := runTiny(t, name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
				if !strings.Contains(strings.Join(lines, "\n"), "metric "+d.Name+" ") {
					t.Errorf("%s trace %s: report does not print %s", name, trace, d.Name)
				}
			}
		}
	}
}

// TestSameSeedSameDigest checks that two runs of one seed serve the same
// outcomes, byte for byte.
func TestSameSeedSameDigest(t *testing.T) {
	for _, name := range workloadNames {
		digest := func() string {
			lines, _ := runTiny(t, name, "0")
			for _, l := range lines {
				if strings.HasPrefix(l, "digest ") {
					return l
				}
			}
			t.Fatalf("%s: no digest line", name)
			return ""
		}
		if a, b := digest(), digest(); a != b {
			t.Errorf("%s: digests differ:\n%s\n%s", name, a, b)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json names %d workloads, the command %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		kind string
		spec []named
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].Name || m.Unit != c.defs[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", c.kind, i, m, c.defs[i])
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope", "-scratch", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("unknown workload printed a result: %s", stdout.String())
	}
}

// servedRound clears one small round through MSOA and returns it as the
// platform would have recorded it, with the replay of that record.
func servedRound(t *testing.T) (*platform.AuditRecord, *core.RoundResult) {
	t.Helper()
	ins := workload.Instance(workload.NewRand(5), workload.InstanceConfig{Bidders: 12})
	rec := &platform.AuditRecord{T: 1, Demand: ins.Demand}
	for _, b := range ins.Bids {
		rec.Bids = append(rec.Bids, platform.AuditBid{Bidder: b.Bidder, Alt: b.Alt, Price: b.Price, Covers: b.Covers, Units: b.Units})
	}
	res := platform.ReplayRecord(core.NewMSOA(core.MSOAConfig{}), rec, nil, nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	served := rec.Instance()
	for _, w := range res.Outcome.Winners {
		b := served.Bids[w]
		rec.Awards = append(rec.Awards, platform.WireAward{Bidder: b.Bidder, Alt: b.Alt, Payment: res.Outcome.Payments[w]})
	}
	rec.SocialCost = res.Outcome.SocialCost
	return rec, res
}

// TestCheckServedNegativeControl tampers with a served outcome and
// expects the platform checks to catch it.
func TestCheckServedNegativeControl(t *testing.T) {
	rec, res := servedRound(t)
	if err := checkServed(rec, res); err != nil {
		t.Fatalf("honest round fails the checks: %v", err)
	}
	tamper := map[string]func(r *platform.AuditRecord){
		"payment below price": func(r *platform.AuditRecord) {
			aw := &r.Awards[0]
			for _, b := range r.Bids {
				if b.Bidder == aw.Bidder && b.Alt == aw.Alt {
					aw.Payment = b.Price - 1
				}
			}
		},
		"payment off by one ulp": func(r *platform.AuditRecord) {
			r.Awards[0].Payment += r.Awards[0].Payment * 1e-15
		},
		"award dropped": func(r *platform.AuditRecord) { r.Awards = r.Awards[1:] },
		"award to a losing alternative": func(r *platform.AuditRecord) {
			r.Awards[0].Alt = 1 - r.Awards[0].Alt
		},
		"social cost changed": func(r *platform.AuditRecord) { r.SocialCost++ },
	}
	for name, f := range tamper {
		rec, res := servedRound(t)
		f(rec)
		if err := checkServed(rec, res); err == nil {
			t.Errorf("%s: checks passed", name)
		}
	}
}

// TestCheckOfflineRoundNegativeControl tampers with an offline round and
// expects the checks to catch it.
func TestCheckOfflineRoundNegativeControl(t *testing.T) {
	scn := workload.Online(workload.NewRand(9), onlineConfig(10, 100, 2, 1))
	r := scn.TrueRounds[0]
	res := core.NewMSOA(scn.Config(core.Options{})).RunRound(r)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	fresh := func() *optimal.Result {
		sol, err := optimal.Solve(r.Instance, optimal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	if err := checkOfflineRound(r.Instance, res.Outcome, fresh()); err != nil {
		t.Fatalf("honest round fails the checks: %v", err)
	}

	sol := fresh()
	sol.Cost = res.Outcome.SocialCost + 1
	if checkOfflineRound(r.Instance, res.Outcome, sol) == nil {
		t.Error("exact optimum above MSOA's cost passed")
	}
	sol = fresh()
	sol.LowerBound = res.Outcome.SocialCost + 1
	if checkOfflineRound(r.Instance, res.Outcome, sol) == nil {
		t.Error("lower bound above MSOA's cost passed")
	}
	sol = fresh()
	sol.Winners = append(sol.Winners, sol.Winners[0])
	if checkOfflineRound(r.Instance, res.Outcome, sol) == nil {
		t.Error("optimum selecting a bid twice passed")
	}
	out := *res.Outcome
	out.Winners = append(append([]int(nil), out.Winners...), out.Winners[0])
	if checkOfflineRound(r.Instance, &out, fresh()) == nil {
		t.Error("MSOA outcome selecting a bid twice passed")
	}
}
