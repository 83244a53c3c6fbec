package experiments

import (
	"testing"
	"time"

	"edgeauction/internal/core"
)

func arenaConfig() Config {
	// A non-binding solver budget keeps renders load-independent (same
	// convention as the repro determinism tests).
	return Config{Seed: 5, Quick: true, OptTimeLimit: time.Minute}
}

// TestArenaDefaultRace: the three-way default race runs, every mechanism
// attempts the same rounds, SSAM clears them all, and the truthful
// mechanisms (SSAM, posted price) show zero regret on the probe grid.
func TestArenaDefaultRace(t *testing.T) {
	res, err := Arena(arenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mechanisms) != 3 {
		t.Fatalf("default race has %d mechanisms, want 3", len(res.Mechanisms))
	}
	byName := map[string]ArenaMechanism{}
	for _, m := range res.Mechanisms {
		byName[m.Name] = m
		if m.Rounds == 0 {
			t.Errorf("%s attempted no rounds", m.Spec)
		}
		if m.RegretProbes == 0 {
			t.Errorf("%s ran no regret probes", m.Spec)
		}
		if m.Rounds > m.InfeasibleRounds && m.SocialCost <= 0 {
			t.Errorf("%s cleared rounds but reports social cost %v", m.Spec, m.SocialCost)
		}
	}
	ssam := byName[core.NameSSAM]
	if ssam.InfeasibleRounds != 0 {
		t.Errorf("ssam dropped %d rounds on a coverable workload", ssam.InfeasibleRounds)
	}
	if ssam.CompetitiveRatio < 1 {
		t.Errorf("ssam competitive ratio %v below 1 — denominator broken", ssam.CompetitiveRatio)
	}
	for _, name := range []string{core.NameSSAM, core.NamePostedPrice} {
		if m := byName[name]; m.ProfitableDeviations != 0 || m.MaxRegret != 0 {
			t.Errorf("%s shows regret (%d deviations, max %v) — should be truthful on J=1 probes",
				name, m.ProfitableDeviations, m.MaxRegret)
		}
	}
}

// TestArenaDeterministic: identical configs must render identically —
// the arena rides the same seeded-trial machinery as every figure.
func TestArenaDeterministic(t *testing.T) {
	r1, err := Arena(arenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Arena(arenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r2.Render() {
		t.Fatalf("arena renders diverged:\n%s\nvs\n%s", r1.Render(), r2.Render())
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("arena JSON diverged between identical runs")
	}
}

// TestArenaRejectsBadSpec: unresolvable specs fail upfront, not per trial.
func TestArenaRejectsBadSpec(t *testing.T) {
	cfg := arenaConfig()
	cfg.ArenaSpecs = []core.MechanismSpec{{Name: "no-such-mechanism"}}
	_, err := Arena(cfg)
	if err == nil {
		t.Fatal("unknown mechanism spec must fail the arena upfront")
	}
}
