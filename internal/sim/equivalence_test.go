package sim_test

import (
	"testing"
	"time"

	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// TestCountsReplaysDenseTraceExactly is the strong cross-backend contract:
// feeding the counts engine the exact (responder, initiator) state pairs of
// a dense run must reproduce the dense census trajectory step for step —
// same class counts, same leader count, same convergence step. This pins
// the two backends' transition accounting to each other with no sampling
// slack at all.
func TestCountsReplaysDenseTraceExactly(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(300))
	dense := sim.NewRunner[uint32, *gs18.Protocol](pr, rng.New(42))
	counts := sim.NewCountsEngine[uint32](pr, rng.New(99)) // PRNG unused during replay

	type snapshot struct {
		counts  []int64
		leaders int
	}
	var pairs [][2]uint32
	dense.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		pairs = append(pairs, [2]uint32{oldR, oldI})
	})
	var denseSnaps []snapshot
	const every = 500
	dense.AddObserver(func(step uint64, pop []uint32) {
		denseSnaps = append(denseSnaps, snapshot{
			counts:  append([]int64(nil), dense.Counts()...),
			leaders: dense.Leaders(),
		})
	}, every)
	denseRes := dense.Run()
	if !denseRes.Converged {
		t.Fatalf("dense run did not converge: %+v", denseRes)
	}

	snap := 0
	for k, p := range pairs {
		counts.ApplyPair(p[0], p[1])
		if (k+1)%every == 0 {
			want := denseSnaps[snap]
			snap++
			for c, v := range counts.Counts() {
				if v != want.counts[c] {
					t.Fatalf("step %d: class %d census %d, dense %d", k+1, c, v, want.counts[c])
				}
			}
			if counts.Leaders() != want.leaders {
				t.Fatalf("step %d: leaders %d, dense %d", k+1, counts.Leaders(), want.leaders)
			}
		}
	}
	countsRes := counts.Run() // already stable: must return immediately
	if countsRes.Interactions != denseRes.Interactions {
		t.Fatalf("replay advanced to %d interactions, dense stopped at %d",
			countsRes.Interactions, denseRes.Interactions)
	}
	if !countsRes.Converged || countsRes.Leaders != denseRes.Leaders {
		t.Fatalf("replay end state %+v, dense %+v", countsRes, denseRes)
	}
	for c := range countsRes.Counts {
		if countsRes.Counts[c] != denseRes.Counts[c] {
			t.Fatalf("final census differs: %v vs %v", countsRes.Counts, denseRes.Counts)
		}
	}
}

// TestCrossBackendConvergenceKS is the statistical cross-backend contract
// from the issue: GS18 at n = 10⁴, 100 independent trials per backend, and
// the two convergence-time (parallel time) distributions must agree under a
// Kolmogorov–Smirnov test. The counts backend runs in its exact
// per-interaction mode here, so the two samples are draws from the same
// distribution and the test is a fixed-seed regression against any census
// accounting drift between the backends.
func TestCrossBackendConvergenceKS(t *testing.T) {
	if testing.Short() {
		t.Skip("100×2 GS18 trials at n=10⁴ take over a minute on one core")
	}
	const n = 10_000
	const trials = 100
	pr := gs18.MustNew(gs18.DefaultParams(n))
	factory := func(int) *gs18.Protocol { return pr }

	denseRes, err := sim.RunTrials[uint32, *gs18.Protocol](factory, sim.TrialConfig{
		Trials: trials, Seed: 2019, Backend: sim.BackendDense,
	})
	if err != nil {
		t.Fatal(err)
	}
	countsRes, err := sim.RunTrials[uint32, *gs18.Protocol](factory, sim.TrialConfig{
		Trials: trials, Seed: 1871, Backend: sim.BackendCounts,
	})
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

// TestCrossBackendBatchModeAgrees bounds the bias of the batched
// (approximate) regime against dense runs. Collision-free batches are a
// genuine perturbation of the sequential scheduler — at ℓ = n/8 the GS18
// stabilization-time mean runs ≈10% high (see the CountsEngine docs) — so
// this asserts a tolerance band rather than distributional identity: every
// batched trial elects exactly one leader, and the mean stabilization time
// stays within 35% of the dense mean.
func TestCrossBackendBatchModeAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("40×2 GS18 trials at n=10⁴ take ~30s on one core")
	}
	const n = 10_000
	const trials = 40
	pr := gs18.MustNew(gs18.DefaultParams(n))
	factory := func(int) *gs18.Protocol { return pr }

	denseRes, err := sim.RunTrials[uint32, *gs18.Protocol](factory, sim.TrialConfig{
		Trials: trials, Seed: 7, Backend: sim.BackendDense,
	})
	if err != nil {
		t.Fatal(err)
	}
	batchRes, err := sim.RunTrials[uint32, *gs18.Protocol](factory, sim.TrialConfig{
		Trials: trials, Seed: 8, Backend: sim.BackendCounts,
		Batch: sim.BatchPolicy{Mode: sim.BatchFixed, Len: n / 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.AllConverged(denseRes) || !sim.AllConverged(batchRes) {
		t.Fatalf("convergence: dense %d/%d, batch %d/%d",
			sim.ConvergedCount(denseRes), trials, sim.ConvergedCount(batchRes), trials)
	}
	for i, r := range batchRes {
		if r.Leaders != 1 {
			t.Fatalf("batched trial %d ended with %d leaders", i, r.Leaders)
		}
	}
	dMean := stats.Mean(sim.ParallelTimes(denseRes))
	bMean := stats.Mean(sim.ParallelTimes(batchRes))
	if ratio := bMean / dMean; ratio < 1/1.35 || ratio > 1.35 {
		t.Fatalf("batched stabilization-time mean %.1f vs dense %.1f (ratio %.2f) outside the 35%% band",
			bMean, dMean, ratio)
	}
}

// TestCountsStatesEnumerationCoversRun validates the Enumerable contract on
// the protocol the scale story depends on: every state that actually occurs
// in a GS18 run is contained in States().
func TestCountsStatesEnumerationCoversRun(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(2000))
	enumerated := make(map[uint32]struct{})
	for _, s := range pr.States() {
		enumerated[s] = struct{}{}
	}
	r := sim.NewRunner[uint32, *gs18.Protocol](pr, rng.New(12))
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		if _, ok := enumerated[newR]; !ok {
			t.Fatalf("state %#x reached but not enumerated", newR)
		}
		if _, ok := enumerated[newI]; !ok {
			t.Fatalf("state %#x reached but not enumerated", newI)
		}
	})
	if res := r.Run(); !res.Converged {
		t.Fatalf("%+v", res)
	}
	// And the census classes of the whole enumeration are in range.
	for _, s := range pr.States() {
		if c := pr.Class(s); int(c) >= pr.NumClasses() {
			t.Fatalf("state %#x maps to class %d out of range", s, c)
		}
	}
}

// TestCountsGS18HundredMillion is the scale acceptance test: the counts
// backend must run GS18 leader election at n = 10⁸ to stabilization well
// within a minute of wall time on one core (measured ≈15 s; the dense
// backend would need over an hour at its ~20M interactions/s). The test
// pins the fixed n/8 throughput policy explicitly: it asserts what the
// engine can do per second, and the auto default at this size is now the
// drift-bounded adaptive controller, which trades ≈7× of that throughput
// for scheduler fidelity (and has its own clock-span regression tests).
func TestCountsGS18HundredMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10⁸ takes ~15s")
	}
	const n = 100_000_000
	pr := gs18.MustNew(gs18.DefaultParams(n))
	eng, err := sim.NewEngine[uint32, *gs18.Protocol](pr, rng.New(1), sim.BackendCounts)
	if err != nil {
		t.Fatal(err)
	}
	eng.(*sim.CountsEngine[uint32]).SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed})
	start := time.Now()
	res := eng.Run()
	elapsed := time.Since(start)
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("n=10⁸: %+v", res)
	}
	t.Logf("n=10⁸ stabilized after %.3g interactions (parallel time %.0f) in %v",
		float64(res.Interactions), res.ParallelTime(), elapsed.Round(time.Millisecond))
	if elapsed > time.Minute {
		t.Fatalf("stabilization took %v, want under a minute", elapsed)
	}
}
