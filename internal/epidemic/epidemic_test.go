package epidemic

import (
	"math"
	"slices"
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/simtest"
	"popelect/internal/stats"
)

func TestSpreadTruthTable(t *testing.T) {
	cases := []struct{ r, i, want bool }{
		{false, false, false},
		{false, true, true},
		{true, false, true},
		{true, true, true},
	}
	for _, c := range cases {
		if got := Spread(c.r, c.i); got != c.want {
			t.Errorf("Spread(%v, %v) = %v", c.r, c.i, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(10, 1); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, c := range []struct{ n, k int }{{1, 1}, {10, 0}, {10, 11}} {
		if _, err := New(c.n, c.k); err == nil {
			t.Errorf("New(%d, %d) should fail", c.n, c.k)
		}
	}
}

func TestEpidemicCompletes(t *testing.T) {
	p, _ := New(500, 1)
	r := sim.NewRunner(p, rng.New(5))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("epidemic did not finish: %v", res)
	}
	if res.Counts[1] != 500 {
		t.Fatalf("census %v", res.Counts)
	}
}

func TestInfectionMonotone(t *testing.T) {
	p, _ := New(100, 1)
	r := sim.NewRunner(p, rng.New(9))
	prev := int64(1)
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		cur := r.Counts()[1]
		if cur < prev {
			t.Fatalf("infected count decreased: %d -> %d", prev, cur)
		}
		prev = cur
	})
	r.Run()
}

// TestCompletionScaling verifies the Θ(n log n) completion time: the ratio
// (interactions / (n ln n)) must stay within a narrow band as n grows. The
// classic result gives ≈ 2·n·ln n expected interactions for a single source
// (logistic growth: n ln n for the first half, coupon-collector n ln n for
// the last stragglers).
func TestCompletionScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment")
	}
	var ratios []float64
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		cfg := sim.TrialConfig{Trials: 10, Seed: uint64(n), Workers: 0}
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol {
			p, _ := New(n, 1)
			return p
		}, cfg))
		if !sim.AllConverged(rs) {
			t.Fatalf("n=%d: not all trials converged", n)
		}
		mean := stats.Mean(sim.Interactions(rs))
		ratios = append(ratios, mean/(float64(n)*math.Log(float64(n))))
	}
	// All ratios should be around 2, and near-constant across n.
	for _, r := range ratios {
		if r < 1 || r > 4 {
			t.Fatalf("completion / (n ln n) = %v, want ≈ 2; ratios %v", r, ratios)
		}
	}
	if spread := stats.RatioSpread(ratios, []float64{1, 1, 1}); spread > 1.5 {
		t.Fatalf("completion ratios drift with n: %v", ratios)
	}
}

func TestMoreSourcesFaster(t *testing.T) {
	n := 1 << 12
	mean := func(k int) float64 {
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol {
			p, _ := New(n, k)
			return p
		}, sim.TrialConfig{Trials: 8, Seed: 77}))
		return stats.Mean(sim.Interactions(rs))
	}
	one, many := mean(1), mean(n/4)
	if many >= one {
		t.Fatalf("epidemic from n/4 sources (%v) not faster than from 1 (%v)", many, one)
	}
}

func TestProtocolMetadata(t *testing.T) {
	p, _ := New(10, 2)
	if p.Name() == "" || p.N() != 10 || p.NumClasses() != 2 {
		t.Fatal("metadata broken")
	}
	if p.Leader(1) {
		t.Fatal("epidemics have no leaders")
	}
	if p.Class(0) != 0 || p.Class(1) != 1 {
		t.Fatal("classes broken")
	}
	if !p.Stable([]int64{0, 10}) || p.Stable([]int64{1, 9}) {
		t.Fatal("stability predicate broken")
	}
	if states, ends, err := sim.InitRuns(p); err != nil ||
		!slices.Equal(states, []uint32{1, 0}) || !slices.Equal(ends, []int64{int64(p.Sources), int64(p.N())}) {
		t.Fatalf("sources broken: runs %v %v, %v", states, ends, err)
	}
}

// TestStableOnChurnedCensus checks the stability predicate against the
// live census: under churn its total drifts from Size (10 here), so 7
// infected agents alone are stable and 10 infected beside 3 susceptible
// are not.
func TestStableOnChurnedCensus(t *testing.T) {
	p, _ := New(10, 2)
	if !p.Stable([]int64{0, 7}) || !p.Stable([]int64{0, 13}) {
		t.Fatal("an all-infected census off Size is not stable")
	}
	if p.Stable([]int64{3, 10}) || p.Stable([]int64{1, 6}) {
		t.Fatal("a census with susceptible agents is stable")
	}
}
