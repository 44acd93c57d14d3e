package sim_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"popelect/internal/core"
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
// tree, so any refactor that changes how an unperturbed engine consumes
// randomness or applies transitions — on any of the four engine
// configurations — fails this test. Attaching no perturbation must be a
// true no-op.
//
// The gsu19-adaptive hash was recorded after the others. GSU19 is the one
// case whose census has silent pairs, so it pins the serial batch
// sampler's two row rules (alias rows and hypergeometric chains) on a
// census with silent initiator columns.
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
			name: "counts-adaptive",
			want: "ec5c4648f611d00b",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(3000))
				e := sim.NewCountsEngine[uint32](pr, rng.New(13))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
				return e, 1500
			},
		},
		{
			name: "counts-fixed-w4",
			want: "4e81b915a94cf090",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := gs18.MustNew(gs18.DefaultParams(20000))
				e := sim.NewCountsEngine[uint32](pr, rng.New(14))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed})
				e.SetWorkers(4)
				return e, 10000
			},
		},
		{
			name: "gsu19-adaptive",
			want: "7c4eeb67b4bfe480",
			make: func(t *testing.T) (sim.Engine, uint64) {
				pr := core.MustNew(core.DefaultParams(3000))
				e := sim.NewCountsEngine[core.State](pr, rng.New(15))
				e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
				return e, 1500
			},
			hash: traceHash[core.State],
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
