package sudo19

import (
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

func TestParamsValidation(t *testing.T) {
	cases := []Params{
		{N: 1, MaxLevel: 10, Timer: 20, WarmupReads: 5},
		{N: 100, MaxLevel: 1, Timer: 20, WarmupReads: 5},
		{N: 100, MaxLevel: 64, Timer: 20, WarmupReads: 5},
		{N: 100, MaxLevel: 10, Timer: 0, WarmupReads: 5},
		{N: 100, MaxLevel: 10, Timer: 64, WarmupReads: 5},
		{N: 100, MaxLevel: 10, Timer: 20, WarmupReads: 8},
	}
	for i, p := range cases {
		if _, err := New(p); err == nil {
			t.Fatalf("case %d: expected rejection of %+v", i, p)
		}
	}
	if _, err := New(DefaultParams(10_000)); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsScale(t *testing.T) {
	p := DefaultParams(10_000)
	if p.MaxLevel != 28 || p.Timer != 56 {
		t.Fatalf("DefaultParams(10⁴) = %+v", p)
	}
	big := DefaultParams(1 << 30)
	if big.MaxLevel != 60 || big.Timer != 63 {
		t.Fatalf("DefaultParams(2³⁰) = %+v", big)
	}
}

// TestElectsUniqueLeader runs whole elections on both backends at small n:
// stabilization with exactly one leader, and a state count in the declared
// O(log n) regime.
func TestElectsUniqueLeader(t *testing.T) {
	pr := MustNew(DefaultParams(2000))
	// The enumeration is polylog-sized (frozen follower timers cross the
	// maxSeen range) — tiny next to the census backends' budgets.
	if c := pr.StateCount(); c > 50_000 {
		t.Fatalf("state count %d is not polylog-sized at n=2000", c)
	}
	for _, b := range []sim.Backend{sim.BackendDense, sim.BackendCounts} {
		eng, err := sim.NewEngine(pr, rng.New(99), b)
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		if !res.Converged || res.Leaders != 1 {
			t.Fatalf("%s backend: %+v", b, res)
		}
	}
}

// TestCrossBackendConvergenceKS is the acceptance pin for the sudo19
// registry entry: at n = 10⁴ the counts backend runs in its exact
// per-interaction mode, so its stabilization-time distribution must be
// KS-consistent with the dense backend's ground truth.
func TestCrossBackendConvergenceKS(t *testing.T) {
	if testing.Short() {
		t.Skip("2×40 elections at n=10⁴")
	}
	const n = 10_000
	const trials = 40
	p := DefaultParams(n)
	factory := func(int) sim.Protocol { return MustNew(p) }
	denseRes, err := sim.RunTrials(factory, sim.TrialConfig{
		Trials: trials, Seed: 1812, Backend: sim.BackendDense})
	if err != nil {
		t.Fatal(err)
	}
	countsRes, err := sim.RunTrials(factory, sim.TrialConfig{
		Trials: trials, Seed: 11309, Backend: sim.BackendCounts})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.AllConverged(denseRes) || !sim.AllConverged(countsRes) {
		t.Fatalf("convergence: dense %d/%d, counts %d/%d",
			sim.ConvergedCount(denseRes), trials, sim.ConvergedCount(countsRes), trials)
	}
	for i, r := range countsRes {
		if r.Leaders != 1 {
			t.Fatalf("counts trial %d ended with %d leaders", i, r.Leaders)
		}
	}
	d := stats.KolmogorovSmirnov(sim.ParallelTimes(denseRes), sim.ParallelTimes(countsRes))
	if crit := stats.KSCritical(trials, trials, 0.001); d > crit {
		t.Fatalf("KS statistic %.4f exceeds the α=0.001 critical value %.4f", d, crit)
	}
}
