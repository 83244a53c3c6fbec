package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScenario is a minimal JSON scenario for exercising the CLI without
// paying the builtin scenarios' round counts.
const tinyScenario = `{
  "name": "tiny",
  "seed": 3,
  "rounds": 5,
  "bid_deadline_ms": 20,
  "agents": [
    {"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}
  ],
  "demand": {"needy_lo": 2, "needy_hi": 2, "demand_lo": 1, "demand_hi": 1}
}`

func writeTiny(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestListPrintsBuiltins(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"churn", "faults", "capacity", "federation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q: %s", want, out.String())
		}
	}
}

func TestPrintAppliesOverrides(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "churn", "-seed", "99", "-rounds", "7", "-print"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{`"seed": 99`, `"rounds": 7`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("print output missing %s: %s", want, out.String())
		}
	}
}

func TestCleanRunExitsZero(t *testing.T) {
	path := writeTiny(t)
	audit := filepath.Join(t.TempDir(), "audit.jsonl")
	var out, errOut bytes.Buffer
	code := run([]string{"-scenario", path, "-quiet", "-audit-out", audit}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Errorf("summary missing violation count: %s", out.String())
	}
	data, err := os.ReadFile(audit)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 5 {
		t.Errorf("audit log has %d lines, want 5", n)
	}
}

func TestBrokenPaymentsExitTwo(t *testing.T) {
	path := writeTiny(t)
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-scenario", path, "-quiet", "-break-payments", "-dump-dir", dir}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "VIOLATION") || !strings.Contains(out.String(), "repro:") {
		t.Errorf("violation report incomplete: %s", out.String())
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(dumps) == 0 {
		t.Errorf("no evidence dump written (err %v)", err)
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},                                    // no scenario
		{"-scenario", "nonesuch"},             // unknown builtin
		{"-scenario", "/does/not/exist.json"}, // unreadable file
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 1 {
			t.Errorf("args %v: exit %d, want 1", args, code)
		}
	}
}

// TestComparisonReusedDir runs the builtin crash scenario twice in one
// -crash-dir: each pass must start from an empty WAL and snapshot dir, so
// both runs match and report the same crash/recovery counts.
func TestComparisonReusedDir(t *testing.T) {
	dir := t.TempDir()
	const want = "variant crash: state 128d2c976d4e, WAL match true, match true; 6 platform crashes, 6 recoveries (23 records replayed, 5 snapshots)"
	for i := 1; i <= 2; i++ {
		var out, errOut bytes.Buffer
		if code := run([]string{"-scenario", "crash", "-quiet", "-crash-dir", dir}, &out, &errOut); code != 0 {
			t.Fatalf("run %d: exit %d: %s%s", i, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("run %d: output missing %q:\n%s", i, want, out.String())
		}
	}
}

// TestPipelineComparisonExitsZero runs the pipeline scenario's variants
// and prints one line per variant.
func TestPipelineComparisonExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "pipeline", "-rounds", "15", "-quiet"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, v := range []string{"pipelined", "untraced", "parallel-payments"} {
		if !strings.Contains(out.String(), "variant "+v+": ") {
			t.Errorf("output missing variant %s:\n%s", v, out.String())
		}
	}
}

// TestComparisonAuditsBaseline: on a comparison scenario the auditor's
// flags act on the baseline pass, exactly as on an audited scenario — the
// audit and trace logs are written, and a broken payment rule exits 2
// before any variant runs.
func TestComparisonAuditsBaseline(t *testing.T) {
	dir := t.TempDir()
	audit, trace := filepath.Join(dir, "audit.jsonl"), filepath.Join(dir, "trace.jsonl")
	var out, errOut bytes.Buffer
	args := []string{"-scenario", "pipeline", "-rounds", "15", "-quiet", "-audit-out", audit, "-trace-out", trace}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s%s", args, code, out.String(), errOut.String())
	}
	if data, err := os.ReadFile(audit); err != nil || bytes.Count(data, []byte("\n")) != 15 {
		t.Errorf("audit log: %d lines (err %v), want 15", bytes.Count(data, []byte("\n")), err)
	}
	if info, err := os.Stat(trace); err != nil || info.Size() == 0 {
		t.Errorf("trace log empty or missing (err %v)", err)
	}

	out.Reset()
	dumps := filepath.Join(dir, "dumps")
	args = []string{"-scenario", "crash", "-quiet", "-break-payments", "-dump-dir", dumps}
	if code := run(args, &out, &errOut); code != 2 {
		t.Fatalf("%v: exit %d, want 2: %s%s", args, code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "VIOLATION") || strings.Contains(out.String(), "variant ") {
		t.Errorf("want violations reported and no variant run:\n%s", out.String())
	}
	if found, _ := filepath.Glob(filepath.Join(dumps, "*.json")); len(found) == 0 {
		t.Error("no evidence dump written")
	}
}
