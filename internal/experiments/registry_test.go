package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"edgeauction/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestFiguresByteIdenticalAcrossTrialParallelism is the golden gate on
// the quick reproduction: every experiment renders, and writes CSV,
// exactly the bytes committed under testdata/golden, at TrialParallelism
// 1 (serial) and 8 (fan-out). Each sweep cell samples from an RNG stream
// derived purely from its grid coordinate, and the exact solver's hour
// budget never binds on quick instances, so the bytes are a function of
// the seed alone on any machine. Figure 4(b) is excluded: its values are
// wall-clock times. Regenerate with `go test -run
// TestFiguresByteIdenticalAcrossTrialParallelism -update`.
func TestFiguresByteIdenticalAcrossTrialParallelism(t *testing.T) {
	for _, e := range Experiments() {
		if e.Name == "fig4b" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			for _, par := range []int{1, 8} {
				res, err := e.Run(Config{Seed: 1, Quick: true, TrialParallelism: par, OptTimeLimit: time.Hour})
				if err != nil {
					t.Fatalf("TrialParallelism=%d: %v", par, err)
				}
				checkGolden(t, e.Name+".txt", []byte(res.Render()), par)
				if sr, ok := res.(SeriesResult); ok {
					var csv bytes.Buffer
					if err := WriteCSV(&csv, sr); err != nil {
						t.Fatal(err)
					}
					checkGolden(t, e.Name+".csv", csv.Bytes(), par)
				} else if _, err := os.Stat(goldenPath(e.Name + ".csv")); err == nil {
					t.Errorf("%s is not a SeriesResult but has a golden CSV", e.Name)
				}
			}
		})
	}
}

func goldenPath(file string) string { return filepath.Join("testdata", "golden", file) }

func checkGolden(t *testing.T, file string, got []byte, par int) {
	t.Helper()
	path := goldenPath(file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("TrialParallelism=%d: %s differs from the golden file:\n--- got ---\n%s\n--- want ---\n%s",
			par, file, got, want)
	}
}

// TestTruthfulnessSweepSkipsReserveBids: the sweep probes every
// misreport factor on every bid of the instances it draws except the
// platform's reserve ladder, which has one rung per needy service per
// power of two.
func TestTruthfulnessSweepSkipsReserveBids(t *testing.T) {
	cfg := Config{Seed: 1, Quick: true}
	res, err := TruthfulnessSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, rungs, instances := 0, 0, 0
	for trial := 0; trial < 8; trial++ { // Quick mode's instance count
		rng := workload.NewDerived(cfg.Seed, "truthfulness", 0, trial)
		for j := 1; j <= 2; j++ {
			ins, bidders := probeInstance(rng, j)
			instances++
			for _, b := range ins.Bids {
				if workload.IsReserveBid(b, bidders) {
					rungs++
				} else {
					want += len(probeFactors)
				}
			}
		}
	}
	if rungs <= instances {
		t.Fatalf("%d reserve rungs over %d instances: no multi-rung ladder to skip", rungs, instances)
	}
	if res.Deviations != want {
		t.Fatalf("sweep probed %d deviations, want %d (reserve rungs must not be probed)", res.Deviations, want)
	}
}
