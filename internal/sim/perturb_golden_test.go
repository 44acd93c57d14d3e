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
func traceHash[S comparable](t *testing.T, eng sim.Engine, every uint64) string {
	t.Helper()
	h := fnv.New64a()
	if err := sim.AddProbe[S](eng, func(step uint64, v sim.CensusView[S]) {
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
// tree (the three batched ones re-recorded since, when the batch chains'
// Normal approximation was deleted), so any refactor that changes how an
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
// biased one.
func TestNilPerturbationTraceGolden(t *testing.T) {
	cases := []struct {
		name string
		want string
		make func(t *testing.T) (sim.Engine, uint64)
		hash func(t *testing.T, eng sim.Engine, every uint64) string // nil: traceHash[uint32]
	}{
		{
			name: "dense",
			want: "41b51bf4fe689ffd",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(3000))
				return sim.NewRunner[uint32, *gs18.Protocol](pr, rng.New(11)), 1500
			},
		},
		{
			name: "counts-exact",
			want: "98b6ca1e35bc1a5d",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(3000))
				return sim.NewCountsEngine[uint32](pr, rng.New(12)), 1500
			},
		},
		{
			// Batched: re-recorded when every batch draw became exact
			// (it hashed ec5c4648f611d00b under the Normal approximation).
			name: "counts-adaptive",
			want: "51a7b54849d099d1",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(3000))
				e := sim.NewCountsEngine[uint32](pr, rng.New(13))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
				return e, 1500
			},
		},
		{
			// Batched, re-recorded with exact draws (was 4e81b915a94cf090).
			name: "counts-fixed-w4",
			want: "41c622455b74432d",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(20000))
				e := sim.NewCountsEngine[uint32](pr, rng.New(14))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed})
				e.SetWorkers(4)
				return e, 10000
			},
		},
		{
			// Batched, re-recorded with exact draws (was 7c4eeb67b4bfe480).
			name: "gsu19-adaptive",
			want: "907315bb2f0e85c3",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := core.MustNew(core.DefaultParams(3000))
				e := sim.NewCountsEngine[core.State](pr, rng.New(15))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
				return e, 1500
			},
			hash: traceHash[core.State],
		},
		{
			// The epidemic's converged census is silent, so the exact
			// walker's silent-step skip engages and reactSample runs.
			// With the skip disabled the same case hashes
			// 8c5a0a712876fd01. Only uninfected responders are reactive,
			// so its reactive Fenwick draw has a single outcome.
			name: "epidemic-exact-skip",
			want: "07dff1b7daf978d8",
			make: func(t *testing.T) (sim.Engine, uint64) {
				p, err := epidemic.New(1<<12, 1)
				if err != nil {
					t.Fatal(err)
				}
				return sim.NewCountsEngine[uint32](p, rng.New(16)), 2048
			},
		},
		{
			// Approximate majority's endgame is mostly silent too, but
			// with X, Y and blank responders all reactive, so this case
			// pins which responder reactSample's Fenwick draw picks.
			// With the skip disabled it hashes 7a880f652bf93d97.
			name: "approxmajority-exact-skip",
			want: "6557477791e3a0b5",
			make: func(t *testing.T) (sim.Engine, uint64) {
				p, err := approxmajority.New(1<<12, 2600)
				if err != nil {
					t.Fatal(err)
				}
				return sim.NewCountsEngine[uint32](p, rng.New(18)), 2048
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, every := tc.make(t)
			hash := tc.hash
			if hash == nil {
				hash = traceHash[uint32]
			}
			if got := hash(t, eng, every); got != tc.want {
				t.Fatalf("trajectory hash %s, golden %s — the nil-perturbation path drifted from its recorded trajectory", got, tc.want)
			}
		})
	}
}

// TestBiasedExactTraceGolden pins the exact counts mode under a bias
// perturbation, whose draws go through biasedUnit's proposal-and-accept
// loop rather than Step's two plain Fenwick draws. The hash was recorded
// before the branchless Fenwick descent.
func TestBiasedExactTraceGolden(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(3000))
	e := sim.NewCountsEngine[uint32](pr, rng.New(17))
	if err := e.SetPerturbation(sim.Bias{Weights: []float64{2, 1}}); err != nil {
		t.Fatal(err)
	}
	const want = "0f493b52c1e67cfc"
	if got := traceHash[uint32](t, e, 1500); got != want {
		t.Fatalf("trajectory hash %s, golden %s — the biased exact path drifted from its recorded trajectory", got, want)
	}
}
