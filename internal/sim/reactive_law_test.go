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
// census is fully silent and its susceptible column is globally silent in
// every batch.
func newEpidemicCounts(t *testing.T, n, sources int, seed uint64) *sim.CountsEngine[uint32] {
	t.Helper()
	p, err := epidemic.New(n, sources)
	if err != nil {
		t.Fatal(err)
	}
	return sim.NewCountsEngine[uint32](p, rng.New(seed))
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

// TestBatchPrunedDifferentialLaw is the distributional acceptance gate for
// reactive-column pruning: on forced fixed-length batches the pruned
// sampler (silent aggregate + chains over reactive columns only) must
// produce the same joint law as the reference full-chain sampler. Each
// trial runs both arms to a fixed mid-epidemic step and records the
// infected count at every probe; per-probe means must agree within
// sampling error and the final-probe distributions must pass a KS test.
func TestBatchPrunedDifferentialLaw(t *testing.T) {
	const n = 1 << 14
	const budget = 4 * n // mid-run: completion needs ≈ n·ln n ≈ 9.7n
	probeEvery := uint64(n)
	trials := 80
	if testing.Short() {
		trials = 30
	}
	numProbes := budget / int(probeEvery)
	run := func(disable bool, seedBase uint64) [][]float64 {
		series := make([][]float64, numProbes)
		for i := range series {
			series[i] = make([]float64, 0, trials)
		}
		for s := 0; s < trials; s++ {
			e := newEpidemicCounts(t, n, 1, seedBase+uint64(s))
			sim.SetDisableReactive(e, disable)
			// Force the batched sampler at this sub-ExactMaxN size.
			e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed, Len: n / 8})
			k := 0
			if err := sim.AddProbe[uint32](e, func(step uint64, v sim.CensusView[uint32]) {
				if k < numProbes {
					series[k] = append(series[k], float64(v.Classes()[1]))
					k++
				}
			}, probeEvery); err != nil {
				t.Fatal(err)
			}
			e.RunSteps(budget)
			if k != numProbes {
				t.Fatalf("trial %d: %d probes fired, want %d", s, k, numProbes)
			}
		}
		return series
	}
	pruned := run(false, 1)
	reference := run(true, 1_000_000)
	for i := 0; i < numProbes; i++ {
		mp, hp := stats.MeanCI(pruned[i], 5)
		mr, hr := stats.MeanCI(reference[i], 5)
		if diff := mp - mr; diff > hp+hr || -diff > hp+hr {
			t.Fatalf("probe %d: pruned mean %.1f vs reference mean %.1f differ beyond joint 5σ CI (±%.1f, ±%.1f)",
				i, mp, mr, hp, hr)
		}
	}
	last := numProbes - 1
	d := stats.KolmogorovSmirnov(pruned[last], reference[last])
	if crit := stats.KSCritical(trials, trials, 0.001); d > crit {
		t.Fatalf("final-probe infected counts: KS statistic %.4f > critical %.4f (α=0.001)\npruned:    %v\nreference: %v",
			d, crit, stats.Summarize(pruned[last]), stats.Summarize(reference[last]))
	}
}
