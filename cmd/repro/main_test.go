package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"edgeauction/internal/experiments"
)

// TestFigureNamesUnique pins the order repro runs experiments in, and
// records them under in -bench-json: the registry order, with unique
// names (they are also the CSV file stems) and the five ablations
// sharing one -fig selector.
func TestFigureNamesUnique(t *testing.T) {
	want := []string{
		"fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b",
		"figwinstats", "figoverload", "figspikes", "figfrontier",
		"ablation_scaledprice", "ablation_payments", "ablation_greedy", "ablation_fixedprice", "ablation_capacity",
		"federation", "demand_ablation", "truthfulness", "arena",
	}
	var got []string
	seen := map[string]bool{}
	for _, e := range experiments.Experiments() {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		got = append(got, e.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registry order\n%v\nwant\n%v", got, want)
	}
	if n := len(experiments.Selectors()); n != len(want)-4 {
		t.Fatalf("%d selectors, want %d (the five ablations share one)", n, len(want)-4)
	}
}

func TestRunSingleFigureQuick(t *testing.T) {
	if err := run([]string{"-fig", "4a", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	err := run([]string{"-fig", "9z", "-quick"})
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("want unknown-figure error, got %v", err)
	}
	for _, sel := range append(experiments.Selectors(), "all") {
		if !strings.Contains(err.Error(), sel) {
			t.Errorf("unknown-figure error %q does not name -fig %s", err, sel)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "4b", "-quick", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4b.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,") {
		t.Fatalf("csv missing header: %q", string(data[:20]))
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("want flag parse error")
	}
}

// TestRunWritesProfiles checks that -cpuprofile and -memprofile leave
// non-empty runtime/pprof profiles behind: both are gzip-compressed
// protocol buffers, so each file must start with the gzip magic bytes.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-fig", "3a", "-quick", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("%s: %d bytes without the gzip header of a pprof profile", filepath.Base(path), len(data))
		}
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
			t.Fatalf("%s: profile body of %d bytes, err %v", filepath.Base(path), len(body), err)
		}
	}
}
