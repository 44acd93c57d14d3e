package sim_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"popelect/internal/core"
	"popelect/internal/epidemic"
	"popelect/internal/protocols/approxmajority"
	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// traceHash fingerprints one engine trajectory: every census probe sample
// (step, leaders, occupied states, full class census) plus the final
// Result. Two runs produce the same hash iff they consumed the scheduler's
// randomness identically and applied the same transitions — a trajectory
// byte-identity check that does not depend on the checkpoint wire format.
func traceHash(t *testing.T, eng sim.Engine, every uint64) string {
	t.Helper()
	h := fnv.New64a()
	if err := sim.AddProbe(eng, func(step uint64, v sim.CensusView) {
		fmt.Fprintf(h, "s%d l%d o%d c%v;", step, v.Leaders(), v.Occupied(), v.Classes())
	}, every); err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	fmt.Fprintf(h, "F conv%v i%d l%d c%v", res.Converged, res.Interactions, res.Leaders, res.Counts)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestNilPerturbationTraceGolden pins the perturbation-free code paths to
// the exact trajectories the engines produced before the scenario layer
// existed: the golden hashes below were recorded on the pre-perturbation
// tree (the three batched ones re-recorded since: when the batch chains'
// Normal approximation was deleted, and again when the serial sampler's
// cross-batch alias cache was), so any refactor that changes how an
// unperturbed engine consumes randomness or applies transitions — on any
// of the engine configurations — fails this test. Attaching no
// perturbation must be a true no-op.
//
// The gsu19-adaptive hash was recorded after the others. GSU19 is the one
// batched case whose census has silent pairs, so it pins the serial batch
// sampler's two row rules (alias rows and hypergeometric chains) on a
// census with silent initiator columns. The two exact-skip hashes were
// recorded later still, before the branchless Fenwick descent, so that
// every Fenwick draw site is pinned: counts-exact covers Step, the
// exact-skip cases the reactive draw, and TestBiasedExactTraceGolden the
// biased one. The two exact-noskip cases were recorded with the skip
// disabled, before the plain exact loop was folded into the walker; they
// pin the walker's disengaged state.
func TestNilPerturbationTraceGolden(t *testing.T) {
	cases := []struct {
		name string
		want string
		make func(t *testing.T) (sim.Engine, uint64)
	}{
		{
			name: "dense",
			want: "41b51bf4fe689ffd",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(3000))
				return sim.NewRunner(pr, rng.New(11)), 1500
			},
		},
		{
			name: "counts-exact",
			want: "98b6ca1e35bc1a5d",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(3000))
				return sim.NewCountsEngine(pr, rng.New(12)), 1500
			},
		},
		{
			// Batched: re-recorded when every batch draw became exact
			// (it hashed ec5c4648f611d00b under the Normal approximation),
			// and when batches stopped caching alias tables (was
			// 51a7b54849d099d1).
			name: "counts-adaptive",
			want: "ad2b6a62242bafe6",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(3000))
				e := sim.NewCountsEngine(pr, rng.New(13))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
				return e, 1500
			},
		},
		{
			// Batched, re-recorded with exact draws (was 4e81b915a94cf090)
			// and without the alias cache (was 41c622455b74432d).
			name: "counts-fixed-w4",
			want: "d4de01295ce074f5",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(20000))
				e := sim.NewCountsEngine(pr, rng.New(14))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed})
				e.SetWorkers(4)
				return e, 10000
			},
		},
		{
			// Batched, re-recorded with exact draws (was 7c4eeb67b4bfe480)
			// and without the alias cache (was 907315bb2f0e85c3).
			name: "gsu19-adaptive",
			want: "da86b2c8891c802f",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := core.MustNew(core.DefaultParams(3000))
				e := sim.NewCountsEngine(pr.Words(), rng.New(15))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
				return e, 1500
			},
		},
		{
			// The epidemic's converged census is silent, so the exact
			// walker's silent-step skip engages and reactSample runs.
			// Only uninfected responders are reactive, so its reactive
			// Fenwick draw has a single outcome.
			name: "epidemic-exact-skip",
			want: "07dff1b7daf978d8",
			make: func(t *testing.T) (sim.Engine, uint64) {
				p, err := epidemic.New(1<<12, 1)
				if err != nil {
					t.Fatal(err)
				}
				return sim.NewCountsEngine(p, rng.New(16)), 2048
			},
		},
		{
			// Approximate majority's endgame is mostly silent too, but
			// with X, Y and blank responders all reactive, so this case
			// pins which responder reactSample's Fenwick draw picks.
			name: "approxmajority-exact-skip",
			want: "6557477791e3a0b5",
			make: func(t *testing.T) (sim.Engine, uint64) {
				p, err := approxmajority.New(1<<12, 2600)
				if err != nil {
					t.Fatal(err)
				}
				return sim.NewCountsEngine(p, rng.New(18)), 2048
			},
		},
		{
			// The epidemic case with the skip disabled: the walker never
			// engages and steps every interaction plainly.
			name: "epidemic-exact-noskip",
			want: "8c5a0a712876fd01",
			make: func(t *testing.T) (sim.Engine, uint64) {
				p, err := epidemic.New(1<<12, 1)
				if err != nil {
					t.Fatal(err)
				}
				e := sim.NewCountsEngine(p, rng.New(16))
				sim.SetDisableReactive(e, true)
				return e, 2048
			},
		},
		{
			// The approximate-majority case with the skip disabled.
			name: "approxmajority-exact-noskip",
			want: "7a880f652bf93d97",
			make: func(t *testing.T) (sim.Engine, uint64) {
				p, err := approxmajority.New(1<<12, 2600)
				if err != nil {
					t.Fatal(err)
				}
				e := sim.NewCountsEngine(p, rng.New(18))
				sim.SetDisableReactive(e, true)
				return e, 2048
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, every := tc.make(t)
			if got := traceHash(t, eng, every); got != tc.want {
				t.Fatalf("trajectory hash %s, golden %s — the nil-perturbation path drifted from its recorded trajectory", got, tc.want)
			}
		})
	}
}

// TestBiasedExactTraceGolden pins the exact counts mode under a bias
// perturbation, where drawUnit accepts each proposed unit by its class
// weight instead of returning the first Fenwick draw, and the walker never
// engages the silent-step skip. The hash was recorded before the
// branchless Fenwick descent.
func TestBiasedExactTraceGolden(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(3000))
	e := sim.NewCountsEngine(pr, rng.New(17))
	if err := e.SetPerturbation(sim.Bias{Weights: []float64{2, 1}}); err != nil {
		t.Fatal(err)
	}
	const want = "0f493b52c1e67cfc"
	if got := traceHash(t, e, 1500); got != want {
		t.Fatalf("trajectory hash %s, golden %s — the biased exact path drifted from its recorded trajectory", got, want)
	}
}

// TestPerturbedCountsTraceGolden pins the counts engine under live churn
// and a one-shot corruption, in both its batched and exact modes: every
// departure and every scrambled agent is a uniform removal row drawn by
// removeUniformMVH, so any change to how that row consumes randomness or
// orders the occupied states fails this test.
func TestPerturbedCountsTraceGolden(t *testing.T) {
	cases := []struct {
		name   string
		policy sim.BatchPolicy
		seed   uint64
		want   string
	}{
		{"adaptive", sim.BatchPolicy{Mode: sim.BatchAdaptive}, 19, "b8fc57436d47aa01"},
		{"exact", sim.BatchPolicy{Mode: sim.BatchExact}, 20, "ab87ca595bdaedb1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := gs18.MustNew(gs18.DefaultParams(3000))
			e := sim.NewCountsEngine(pr, rng.New(tc.seed))
			e.SetBatchPolicy(tc.policy)
			p := sim.Combine(
				sim.Churn{LeaveRate: 2e-4, JoinRate: 1e-4, Until: 3000 * 300},
				sim.Corruption{K: 55, At: 3000 * 14},
			)
			if err := e.SetPerturbation(p); err != nil {
				t.Fatal(err)
			}
			if got := traceHash(t, e, 1500); got != tc.want {
				t.Fatalf("trajectory hash %s, golden %s — the perturbed counts path drifted from its recorded trajectory", got, tc.want)
			}
		})
	}
}

// TestTwoRunJoinTraceGolden pins churn joins on a configuration with two
// initial runs (approximate majority, 2600 X then 1496 Y) on all three
// engine paths. Every joiner draws a uniform initial index and enters in
// the state of the run holding it, so a join that picked the wrong run, or
// consumed the draw differently, moves the hash. Each case must stabilize
// after the churn window, before its 80n budget.
//
// The hashes were first recorded while the engines still asked the
// protocol for the state of each agent index, before initial
// configurations became runs, with every run ending at the budget: Stable
// compared the class counts with the initial size, which churn leaves
// behind (dense was ab7dd800e9e32499, counts-exact a0c9f534b1ce680d,
// counts-adaptive 07f9d2d243b81ccd). Since Stable compares with the live
// census total, the runs stop at consensus, between 60n and 62.2n; the
// traces through the churn window are unchanged.
func TestTwoRunJoinTraceGolden(t *testing.T) {
	const n = 4096
	const budget = n * 80
	cases := []struct {
		name string
		want string
		make func(pr *approxmajority.Protocol) sim.Engine
	}{
		{"dense", "e7568ad7d319265f", func(pr *approxmajority.Protocol) sim.Engine {
			return sim.NewRunner(pr, rng.New(21))
		}},
		{"counts-exact", "206801e2349dcf0f", func(pr *approxmajority.Protocol) sim.Engine {
			e := sim.NewCountsEngine(pr, rng.New(22))
			e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchExact})
			return e
		}},
		{"counts-adaptive", "fcbd492b924cf555", func(pr *approxmajority.Protocol) sim.Engine {
			e := sim.NewCountsEngine(pr, rng.New(23))
			e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
			return e
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr, err := approxmajority.New(n, 2600)
			if err != nil {
				t.Fatal(err)
			}
			e := tc.make(pr)
			e.SetBudget(budget)
			churn := sim.Churn{LeaveRate: 2e-4, JoinRate: 2e-4, Until: n * 60}
			if err := e.(sim.Perturbable).SetPerturbation(churn); err != nil {
				t.Fatal(err)
			}
			got := traceHash(t, e, n)
			if e.Steps() >= budget {
				t.Fatalf("ran to the %d-interaction budget without stabilizing", budget)
			}
			if got != tc.want {
				t.Fatalf("trajectory hash %s, golden %s — churn joins on a two-run start drifted from their recorded trajectory", got, tc.want)
			}
		})
	}
}

// TestShardedGSU19TraceGolden pins the in-batch workers on the benchmark's
// own configuration: GSU19 on the adaptive policy with two sampler
// goroutines. At n = 2¹⁸ the first 60n interactions run about 2,100
// batches, 1,700 of them sharded (long enough for parallelMinBatch, with
// at least parallelMinOcc occupied states), so the hash covers both
// phases' shard streams, the shard-level chains on the main stream and the
// fixed-order join. The hash was recorded before the shards got private
// cache lines; a layout change that reorders any draw moves it.
func TestShardedGSU19TraceGolden(t *testing.T) {
	const n = 1 << 18
	pr := core.MustNew(core.DefaultParams(n))
	e := sim.NewCountsEngine(pr.Words(), rng.New(24))
	e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
	e.SetWorkers(2)
	e.SetBudget(60 * n)
	const want = "a0fa0e6d905811cf"
	got := traceHash(t, e, n/4)
	if w := e.EffectiveWorkers(); w != 2 {
		t.Fatalf("EffectiveWorkers %d, want 2 — the sharded path never engaged", w)
	}
	if got != want {
		t.Fatalf("trajectory hash %s, golden %s — the sharded batch path drifted from its recorded trajectory", got, want)
	}
}
