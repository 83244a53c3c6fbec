package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateSolveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "instance.json")
	if err := run([]string{"-gen", "-bidders", "8", "-seed", "5", "-out", path}); err != nil {
		t.Fatalf("generate+solve: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "edgeauction-instance") {
		t.Fatal("written file missing instance kind")
	}
	// Solve the written file back.
	if err := run([]string{"-in", path}); err != nil {
		t.Fatalf("solve from file: %v", err)
	}
}

func TestBudgetedAndVCGModes(t *testing.T) {
	if err := run([]string{"-gen", "-bidders", "6", "-seed", "2",
		"-mechanism", "budgeted-ssam:budget=150", "-mechanism", "vcg",
		"-mechanism", "fixed-price:unit=1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadMechanismSpec(t *testing.T) {
	if err := run([]string{"-gen", "-mechanism", "no-such-mechanism"}); err == nil {
		t.Fatal("want unknown-mechanism error")
	}
	if err := run([]string{"-gen", "-mechanism", "fixed-price"}); err == nil {
		t.Fatal("want missing-unit-price error")
	}
}

func TestRequiresInput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("want usage error")
	}
}

func TestRejectsMissingFile(t *testing.T) {
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "nope.json")}); err == nil {
		t.Fatal("want open error")
	}
}
