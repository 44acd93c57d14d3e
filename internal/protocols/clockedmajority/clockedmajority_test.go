package clockedmajority

import (
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/simtest"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultParams(1024)); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	bad := []Params{
		{N: 1, InitialX: 1, Gamma: 36, Phi: 2},
		{N: 100, InitialX: 101, Gamma: 36, Phi: 2},
		{N: 100, InitialX: -1, Gamma: 36, Phi: 2},
		{N: 100, InitialX: 60, Gamma: 7, Phi: 2},
		{N: 100, InitialX: 60, Gamma: 36, Phi: 0},
		{N: 100, InitialX: 60, Gamma: 36, Phi: 16},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) should fail", p)
		}
	}
}

// TestMajorityWinsExactly: the initial majority must win on every trial —
// the #X − #Y invariant survives the clock gating.
func TestMajorityWinsExactly(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		pr := MustNew(DefaultParams(n))
		rs := simtest.MustTrials(t)(sim.RunTrials(
			func(int) sim.Protocol { return pr },
			sim.TrialConfig{Trials: 10, Seed: uint64(n) + 11}))
		for i, res := range rs {
			if !res.Converged {
				t.Fatalf("n=%d trial %d: %+v", n, i, res)
			}
			if w, ok := pr.Winner(res.Counts); !ok || w != 1 {
				t.Fatalf("n=%d trial %d: winner %d (stable %t), want X (+1): %+v", n, i, w, ok, res)
			}
		}
	}
}

// TestMinorityMajorityWins: the majority wins even when it starts in the
// "Y" seats (exactness, not approximation).
func TestMinorityMajorityWins(t *testing.T) {
	p := DefaultParams(512)
	p.InitialX = 512 * 2 / 5 // X is now the 40% minority
	pr := MustNew(p)
	rs := simtest.MustTrials(t)(sim.RunTrials(
		func(int) sim.Protocol { return pr },
		sim.TrialConfig{Trials: 10, Seed: 77}))
	for i, res := range rs {
		if !res.Converged {
			t.Fatalf("trial %d: %+v", i, res)
		}
		if w, ok := pr.Winner(res.Counts); !ok || w != -1 {
			t.Fatalf("trial %d: winner %d, want Y (−1)", i, w)
		}
	}
}

// TestExactTieDeadlocksAllWeak: an exact tie annihilates every strong
// opinion; the all-weak configuration is the stable tie output.
func TestExactTieDeadlocksAllWeak(t *testing.T) {
	p := DefaultParams(256)
	p.InitialX = 128
	pr := MustNew(p)
	r := sim.NewRunner(pr, rng.New(5))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	if w, ok := pr.Winner(res.Counts); !ok || w != 0 {
		t.Fatalf("winner %d on an exact tie, want 0", w)
	}
	if res.Counts[StrongX] != 0 || res.Counts[StrongY] != 0 {
		t.Fatalf("strong opinions left on a tie: %v", res.Counts)
	}
}

// TestCountsBackendAgrees runs the same seeds on both backends at a size
// inside the counts engine's exact mode: identical scheduling law, so the
// census outcomes must match distributionally (here: same winner, and
// every trial converges).
func TestCountsBackendAgrees(t *testing.T) {
	pr := MustNew(DefaultParams(3000))
	eng, err := sim.NewEngine(pr, rng.New(9), sim.BackendCounts)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged {
		t.Fatalf("counts backend: %+v", res)
	}
	if w, ok := pr.Winner(res.Counts); !ok || w != 1 {
		t.Fatalf("counts backend winner %d, want X", w)
	}
}
