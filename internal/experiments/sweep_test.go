package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"edgeauction/internal/workload"
)

// TestRunSweepMatchesSerial checks the grid values themselves (not just a
// rendering) are identical at every parallelism level, including the
// derived RNG stream handed to each cell.
func TestRunSweepMatchesSerial(t *testing.T) {
	body := func(rng *workload.Rand, point, trial int) (float64, error) {
		return float64(point*1000+trial) + rng.Uniform(0, 1), nil
	}
	base := Config{Seed: 3, Trials: 7, TrialParallelism: 1}
	want, err := runSweep(base, "sweep-test", 5, body)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 8, 0} {
		c := base
		c.TrialParallelism = par
		got, err := runSweep(c, "sweep-test", 5, body)
		if err != nil {
			t.Fatalf("TrialParallelism=%d: %v", par, err)
		}
		for p := range want {
			for tr := range want[p] {
				if got[p][tr] != want[p][tr] {
					t.Fatalf("TrialParallelism=%d: cell[%d][%d] = %v, serial %v",
						par, p, tr, got[p][tr], want[p][tr])
				}
			}
		}
	}
}

// TestRunSweepDeterministicFirstError hammers the runner with failing
// cells: whichever failure a worker observes first in wall-clock time, the
// error returned must always be the lowest-indexed failing cell's, at
// every parallelism level. Run under -race this also exercises the
// dispatch/collect synchronization.
func TestRunSweepDeterministicFirstError(t *testing.T) {
	failAt := map[int]bool{13: true, 14: true, 47: true, 90: true}
	body := func(_ *workload.Rand, point, trial int) (int, error) {
		i := point*10 + trial
		if failAt[i] {
			return 0, fmt.Errorf("cell %d failed", i)
		}
		return i, nil
	}
	for _, par := range []int{1, 2, 4, 8, 0} {
		c := Config{Seed: 1, Trials: 10, TrialParallelism: par}
		_, err := runSweep(c, "err-test", 10, body)
		if err == nil {
			t.Fatalf("TrialParallelism=%d: expected error", par)
		}
		if got, want := err.Error(), "cell 13 failed"; got != want {
			t.Fatalf("TrialParallelism=%d: error %q, want %q (lowest failing index)", par, got, want)
		}
	}
}

// TestRunSweepCancelsAfterFailure checks that a failure stops dispatch:
// with an early failing cell in a 1000-cell grid, only a small prefix
// executes instead of the whole grid. To keep the bound scheduling-proof,
// non-failing cells block until the failing cell has returned, so the
// cells that START before the failure can never exceed the worker pool
// size — no interleaving can let the other workers race through the grid
// first. Cells dispatched in the instant between the failure returning and
// the dispatcher observing it complete as fast no-ops; they are legitimate
// in-flight slack and only the total-grid assertion covers them.
func TestRunSweepCancelsAfterFailure(t *testing.T) {
	const workers = 8
	const points, trials = 10, 100
	var executed, preFailure atomic.Int64
	sentinel := errors.New("boom")
	release := make(chan struct{})
	body := func(_ *workload.Rand, point, trial int) (int, error) {
		executed.Add(1)
		if point == 0 && trial == 3 {
			preFailure.Add(1)
			defer close(release)
			return 0, sentinel
		}
		select {
		case <-release:
			// Post-failure slack: dispatched before the runner observed
			// the error.
		default:
			preFailure.Add(1)
			<-release
		}
		return 0, nil
	}
	c := Config{Seed: 1, Trials: trials, TrialParallelism: workers}
	_, err := runSweep(c, "cancel-test", points, body)
	if !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want sentinel", err)
	}
	if n := preFailure.Load(); n > workers {
		t.Fatalf("%d cells started before the failure returned, want at most %d (worker pool size)", n, workers)
	}
	if n := executed.Load(); n >= points*trials {
		t.Fatalf("all %d cells executed despite early failure; dispatch was not cancelled", n)
	}
}

// TestRunTrialsSinglePoint checks the single-point wrapper derives its
// streams from point 0 and preserves trial order.
func TestRunTrialsSinglePoint(t *testing.T) {
	vals, err := runTrials(Config{Seed: 5, TrialParallelism: 4}, "trials-test", 6,
		func(rng *workload.Rand, trial int) (float64, error) {
			return float64(trial) + rng.Uniform(0, 1), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 6 {
		t.Fatalf("got %d trials, want 6", len(vals))
	}
	for tr, v := range vals {
		want := float64(tr) + workload.NewDerived(5, "trials-test", 0, tr).Uniform(0, 1)
		if v != want {
			t.Fatalf("trial %d = %v, want %v", tr, v, want)
		}
	}
}
