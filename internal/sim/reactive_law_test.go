package sim_test

import (
	"testing"

	"popelect/internal/epidemic"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// newEpidemicCounts builds a counts engine over the one-way epidemic — the
// reference workload for the reactive-pair layer, because its converged
// census is fully silent.
func newEpidemicCounts(t *testing.T, n, sources int, seed uint64) *sim.CountsEngine {
	t.Helper()
	p, err := epidemic.New(n, sources)
	if err != nil {
		t.Fatal(err)
	}
	return sim.NewCountsEngine(p, rng.New(seed))
}

// TestSkipStabilizationKS is the distributional acceptance gate for the
// exact-mode skip: over independent trials at n = 10⁴, the epidemic
// completion-time distribution with silent-step skipping must be
// KS-consistent with the unskipped reference (reactive layer disabled). The two
// arms draw from different points of the rng stream once a skip fires, so
// only the law — not the trajectory — is comparable.
func TestSkipStabilizationKS(t *testing.T) {
	const n = 10_000
	trials := 120
	if testing.Short() {
		trials = 40
	}
	run := func(disable bool, seedBase uint64) []float64 {
		out := make([]float64, 0, trials)
		for i := 0; i < trials; i++ {
			e := newEpidemicCounts(t, n, 1, seedBase+uint64(i))
			sim.SetDisableReactive(e, disable)
			res := e.Run()
			if !res.Converged {
				t.Fatalf("trial %d (disable=%v) did not converge: %+v", i, disable, res)
			}
			out = append(out, float64(res.Interactions))
		}
		return out
	}
	skipped := run(false, 1)
	reference := run(true, 1_000_000)
	d := stats.KolmogorovSmirnov(skipped, reference)
	if crit := stats.KSCritical(trials, trials, 0.001); d > crit {
		t.Fatalf("skip vs reference completion times: KS statistic %.4f > critical %.4f (α=0.001)\nskipped:   %v\nreference: %v",
			d, crit, stats.Summarize(skipped), stats.Summarize(reference))
	}
}
