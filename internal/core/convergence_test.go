package core

import (
	"math"
	"testing"

	"popelect/internal/junta"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/simtest"
	"popelect/internal/stats"
)

// TestAlwaysElectsOneLeader is the Las Vegas guarantee of Theorem 8.2 across
// population sizes, including degenerate ones, over many seeds.
func TestAlwaysElectsOneLeader(t *testing.T) {
	sizes := []int{2, 3, 4, 5, 8, 16, 33, 64, 100}
	for _, n := range sizes {
		pr := MustNew(DefaultParams(n))
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol { return pr.Words() },
			sim.TrialConfig{Trials: 20, Seed: uint64(n) * 17}))
		for i, res := range rs {
			if !res.Converged {
				t.Fatalf("n=%d trial %d did not converge: %+v", n, i, res)
			}
			if res.Leaders != 1 {
				t.Fatalf("n=%d trial %d elected %d leaders", n, i, res.Leaders)
			}
		}
	}
}

func TestAblationsStillElectOneLeader(t *testing.T) {
	for _, p := range []Params{
		{N: 128, Gamma: 36, Phi: 1, Psi: 4, NoFastElim: true},
		{N: 128, Gamma: 36, Phi: 1, Psi: 4, NoDrag: true},
		{N: 128, Gamma: 36, Phi: 1, Psi: 4, NoFastElim: true, NoDrag: true},
	} {
		pr := MustNew(p)
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol { return pr.Words() },
			sim.TrialConfig{Trials: 10, Seed: 99}))
		for i, res := range rs {
			if !res.Converged || res.Leaders != 1 {
				t.Fatalf("%s trial %d: %+v", pr.Name(), i, res)
			}
		}
	}
}

// TestJuntaWithinLemma53Bounds checks the junta size C_Φ ∈ [n^0.45, n^0.77]
// at convergence (with slack for the constant in front at moderate n).
func TestJuntaWithinLemma53Bounds(t *testing.T) {
	n := 1 << 14
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr.Words(), rng.New(31))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	j := float64(pr.JuntaSizeOf(PopCensus(r.Population())))
	lo, hi := junta.JuntaSizeBounds(n)
	if j < lo/2 || j > 2*hi {
		t.Fatalf("junta size %v outside [%v, %v]", j, lo/2, 2*hi)
	}
}

// TestUninitiatedDepleted is Lemma 4.1's consequence: after stabilization at
// most one agent remains in role 0, and few in X/D relative to n.
func TestUninitiatedDepleted(t *testing.T) {
	n := 1 << 13
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr.Words(), rng.New(41))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	roles := pr.RoleCensusOf(PopCensus(r.Population()))
	if roles[RoleZero] > 1 {
		t.Fatalf("%d zeros after convergence", roles[RoleZero])
	}
	stragglers := roles[RoleX] + roles[RoleD]
	logn := math.Log(float64(n))
	if float64(stragglers) > 8*float64(n)/logn {
		t.Fatalf("%d stragglers; Lemma 4.1 suggests O(n/log n) ≈ %.0f", stragglers, float64(n)/logn)
	}
}

// TestInhibitorDragGeometric is Lemma 7.1: D_ℓ decays geometrically with
// ratio ≈ 4.
func TestInhibitorDragGeometric(t *testing.T) {
	n := 1 << 14
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr.Words(), rng.New(51))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	drags := pr.InhibDragCensusOf(PopCensus(r.Population()))
	// Ratios of consecutive non-tiny levels should be around 4.
	for l := 0; l+1 < len(drags) && drags[l+1] > 50; l++ {
		ratio := float64(drags[l]) / float64(drags[l+1])
		if ratio < 2 || ratio > 8 {
			t.Errorf("D_%d/D_%d = %.2f, want ≈ 4 (census %v)", l, l+1, ratio, drags)
		}
	}
	if drags[0] == 0 {
		t.Fatalf("no inhibitors at drag 0: %v", drags)
	}
}

// TestFastEliminationShrinksActives checks Figure 2's shape on one run: by
// the time candidates enter the final epoch, the active count has dropped
// from ≈ n/2 to O(log n)-scale.
func TestFastEliminationShrinksActives(t *testing.T) {
	n := 1 << 14
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr.Words(), rng.New(61))
	activeAtFinal := -1
	r.AddObserver(func(step uint64, pop []uint32) {
		if activeAtFinal >= 0 {
			return
		}
		if pr.MinLeaderCntOf(PopCensus(pop)) == 0 {
			a, _, _ := pr.LeaderModeCensusOf(PopCensus(pop))
			activeAtFinal = a
		}
	}, uint64(n/4))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	if activeAtFinal < 0 {
		t.Fatal("final epoch never observed")
	}
	if activeAtFinal < 1 {
		t.Fatal("no active candidate reached the final epoch")
	}
	logn := math.Log(float64(n))
	// Lemma 6.2: O(log n / q1) with q1 the level-1 coin bias (≈ 1/20);
	// allow a wide constant.
	if float64(activeAtFinal) > 60*logn {
		t.Fatalf("fast elimination left %d actives (n=%d, 60·ln n = %.0f)",
			activeAtFinal, n, 60*logn)
	}
}

// TestConvergenceScalesSubquadratically compares the core protocol to the
// slow Θ(n) baseline shape: parallel time must grow far slower than
// linearly in n.
func TestConvergenceScalesSubquadratically(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	mean := func(n int) float64 {
		pr := MustNew(DefaultParams(n))
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol { return pr.Words() },
			sim.TrialConfig{Trials: 5, Seed: uint64(n)}))
		if !sim.AllConverged(rs) {
			t.Fatalf("n=%d: not all converged", n)
		}
		return stats.Mean(sim.ParallelTimes(rs))
	}
	t1 := mean(1 << 10)
	t16 := mean(1 << 14)
	// 16× the population must cost far less than 16× the parallel time;
	// polylog growth gives well under 4×.
	if t16 > 6*t1 {
		t.Fatalf("parallel time grew from %.0f to %.0f over 16× n — not polylogarithmic", t1, t16)
	}
}
