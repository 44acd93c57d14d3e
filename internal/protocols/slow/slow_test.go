package slow

import (
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/simtest"
	"popelect/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(2); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := New(1); err == nil {
		t.Fatal("n=1 must be rejected")
	}
}

func TestElectsExactlyOneLeader(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100, 1000} {
		p, _ := New(n)
		r := sim.NewRunner(p, rng.New(uint64(n)))
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			t.Fatalf("n=%d: %+v", n, res)
		}
	}
}

func TestLeaderCountMonotone(t *testing.T) {
	p, _ := New(100)
	r := sim.NewRunner(p, rng.New(7))
	prev := r.Leaders()
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		if cur := r.Leaders(); cur > prev {
			t.Fatalf("leader count increased %d → %d", prev, cur)
		} else {
			prev = cur
		}
	})
	r.Run()
}

func TestUsesTwoStates(t *testing.T) {
	p, _ := New(64)
	r := sim.NewRunner(p, rng.New(3))
	r.TrackStates = true
	res := r.Run()
	if res.DistinctStates != 2 {
		t.Fatalf("distinct states = %d, want 2", res.DistinctStates)
	}
}

// TestLinearTime verifies the Θ(n) parallel-time behaviour: interactions
// grow quadratically, so parallel time per n stays near a constant
// (Σ n²/k² ≈ 1.64·n² interactions).
func TestLinearTime(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	var perN []float64
	for _, n := range []int{1 << 8, 1 << 10} {
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol {
			p, _ := New(n)
			return p
		}, sim.TrialConfig{Trials: 10, Seed: uint64(n)}))
		if !sim.AllConverged(rs) {
			t.Fatalf("n=%d: not all converged", n)
		}
		perN = append(perN, stats.Mean(sim.ParallelTimes(rs))/float64(n))
	}
	for _, r := range perN {
		if r < 0.5 || r > 4 {
			t.Fatalf("parallel time / n = %v, want ≈ 1.64", r)
		}
	}
}

func TestStability(t *testing.T) {
	p, _ := New(10)
	counts := []int64{9, 1}
	if !p.Stable(counts) {
		t.Fatal("one leader must be stable")
	}
	if p.Stable([]int64{8, 2}) {
		t.Fatal("two leaders are not stable")
	}
	if p.Name() == "" || p.N() != 10 || p.NumClasses() != 2 {
		t.Fatal("metadata broken")
	}
	if !p.Leader(leader) || p.Leader(follower) {
		t.Fatal("output map broken")
	}
}

var _ sim.Enumerable = (*Protocol)(nil)

func TestCountsBackendElects(t *testing.T) {
	p, _ := New(2000)
	eng, err := sim.NewEngine(p, rng.New(6), sim.BackendCounts)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("counts backend: %+v", res)
	}
}
