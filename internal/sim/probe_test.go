package sim_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// serializeView renders a census view deterministically: step, per-class
// census, leader count, occupied count, and the full state census sorted
// by state value (VisitStates order is unspecified, so the serialization
// must not depend on it).
func serializeView(step uint64, v sim.CensusView) string {
	type entry struct {
		s uint32
		c int64
	}
	var entries []entry
	v.VisitStates(func(s uint32, c int64) {
		entries = append(entries, entry{s, c})
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].s < entries[j].s })
	var b strings.Builder
	fmt.Fprintf(&b, "step=%d n=%d leaders=%d occupied=%d classes=%v census=",
		step, v.N(), v.Leaders(), v.Occupied(), v.Classes())
	for _, e := range entries {
		fmt.Fprintf(&b, "%#x:%d;", e.s, e.c)
	}
	return b.String()
}

// TestProbeCensusSeriesDenseVsCountsReplay is the probe-equivalence
// contract: over the same execution trajectory, the dense and the counts
// backend must emit byte-for-byte identical census series at the same
// probe cadence. The trajectory is pinned by replay — the dense run's
// (responder, initiator) state pairs are fed to the counts engine in exact
// mode (same seeds select different concrete agents in the two
// representations, so free-running same-seed executions are only
// distribution-equal; replay removes that slack and isolates the probe
// pipeline itself: firing steps, census content, class counts, leader
// counts, occupied-state counts, and the end-of-run final fire).
func TestProbeCensusSeriesDenseVsCountsReplay(t *testing.T) {
	const n = 500
	const every = 250
	pr := gs18.MustNew(gs18.DefaultParams(n))

	dense := sim.NewRunner(pr, rng.New(42))
	var pairs [][2]uint32
	dense.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		pairs = append(pairs, [2]uint32{oldR, oldI})
	})
	var denseSeries []string
	dense.AddProbe(func(step uint64, v sim.CensusView) {
		denseSeries = append(denseSeries, serializeView(step, v))
	}, every)
	denseRes := dense.Run()
	if !denseRes.Converged {
		t.Fatalf("dense run did not converge: %+v", denseRes)
	}

	counts := sim.NewCountsEngine(pr, rng.New(42)) // PRNG unused during replay
	var countsSeries []string
	counts.AddProbe(func(step uint64, v sim.CensusView) {
		countsSeries = append(countsSeries, serializeView(step, v))
	}, every)
	for _, p := range pairs {
		counts.ApplyPair(p[0], p[1])
	}
	// Run on the already-stable replayed configuration advances nothing and
	// delivers the final probe fire at the same step as the dense run's.
	countsRes := counts.Run()
	if countsRes.Interactions != denseRes.Interactions {
		t.Fatalf("replay advanced to %d interactions, dense stopped at %d",
			countsRes.Interactions, denseRes.Interactions)
	}

	if len(countsSeries) != len(denseSeries) {
		t.Fatalf("series lengths differ: dense %d fires, counts %d fires",
			len(denseSeries), len(countsSeries))
	}
	for i := range denseSeries {
		if denseSeries[i] != countsSeries[i] {
			t.Fatalf("census series diverge at fire %d:\ndense:  %s\ncounts: %s",
				i, denseSeries[i], countsSeries[i])
		}
	}
	if len(denseSeries) < 3 {
		t.Fatalf("equivalence vacuous: only %d probe fires", len(denseSeries))
	}
}

// batchedPolicies are the counts engine's two batched regimes: fixed
// 2048-step batches (misaligned with the 1000-interval probes below) and
// the adaptive controller, whose lengths follow the measured drift.
var batchedPolicies = []struct {
	name   string
	policy sim.BatchPolicy
}{
	{"fixed", sim.BatchPolicy{Mode: sim.BatchFixed, Len: 1 << 11}},
	{"adaptive", sim.BatchPolicy{Mode: sim.BatchAdaptive}},
}

// TestCountsBatchProbeFiresAtExactCadence pins the batch-splitting
// contract: in the batched regimes, probes fire exactly at multiples of
// their interval — the engine shortens batches to end on probe boundaries
// instead of letting the batch stride past them — and each fire observes
// a census holding the whole population.
func TestCountsBatchProbeFiresAtExactCadence(t *testing.T) {
	const n = 1 << 14
	pr := gs18.MustNew(gs18.DefaultParams(n))
	for _, bp := range batchedPolicies {
		t.Run(bp.name, func(t *testing.T) {
			e := sim.NewCountsEngine(pr, rng.New(17))
			e.SetBatchPolicy(bp.policy)
			const every = 1000
			var fires []uint64
			e.AddProbe(func(step uint64, v sim.CensusView) {
				fires = append(fires, step)
				if v.Step() != step || v.N() != n {
					t.Fatalf("view step %d n %d at fire step %d", v.Step(), v.N(), step)
				}
				var mass int64
				occupied := 0
				v.VisitStates(func(s uint32, c int64) {
					if c <= 0 {
						t.Fatalf("census reported state %#x with count %d", s, c)
					}
					mass += c
					occupied++
				})
				if mass != n || occupied != v.Occupied() {
					t.Fatalf("step %d: census mass %d (want %d), VisitStates yielded %d states, Occupied %d",
						step, mass, n, occupied, v.Occupied())
				}
				var classMass int64
				for _, c := range v.Classes() {
					classMass += c
				}
				if classMass != n {
					t.Fatalf("class census mass %d at step %d, want %d", classMass, step, n)
				}
			}, every)
			e.RunSteps(10_000)
			if len(fires) != 10 {
				t.Fatalf("probe fired %d times over 10000 steps at interval 1000: %v", len(fires), fires)
			}
			for i, s := range fires {
				if s != uint64(i+1)*every {
					t.Fatalf("fire %d at step %d, want %d", i, s, uint64(i+1)*every)
				}
			}
		})
	}
}

// TestCountsBatchProbeStillConverges checks that probe-induced batch
// splitting leaves the execution law intact enough to elect a unique
// leader in the batched regime.
func TestCountsBatchProbeStillConverges(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(1 << 14))
	e := sim.NewCountsEngine(pr, rng.New(23))
	e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed, Len: 1 << 11})
	fires := 0
	lastLeaders := -1
	e.AddProbe(func(step uint64, v sim.CensusView) {
		fires++
		lastLeaders = v.Leaders()
	}, 5000)
	res := e.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("probed batch run failed to elect: %+v", res)
	}
	if fires == 0 {
		t.Fatal("probe never fired")
	}
	if lastLeaders != 1 {
		t.Fatalf("final probe fire saw %d leaders, result says %d", lastLeaders, res.Leaders)
	}
}

// TestEngineCensusOnDemand checks the on-demand census view of both
// backends against the engine's own accounting.
func TestEngineCensusOnDemand(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(600))
	for _, backend := range []sim.Backend{sim.BackendDense, sim.BackendCounts} {
		eng, err := sim.NewEngine(pr, rng.New(3), backend)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunSteps(5000)
		v, err := sim.Census(eng)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if v.Step() != 5000 || v.N() != 600 {
			t.Fatalf("%s: view step %d n %d", backend, v.Step(), v.N())
		}
		var total int64
		distinct := 0
		v.VisitStates(func(s uint32, c int64) {
			if c <= 0 {
				t.Fatalf("%s: state %#x with count %d", backend, s, c)
			}
			total += c
			distinct++
		})
		if total != 600 {
			t.Fatalf("%s: census mass %d, want 600", backend, total)
		}
		if distinct != v.Occupied() {
			t.Fatalf("%s: Occupied %d but VisitStates yielded %d states", backend, v.Occupied(), distinct)
		}
		if v.Leaders() != eng.Leaders() {
			t.Fatalf("%s: view leaders %d, engine %d", backend, v.Leaders(), eng.Leaders())
		}
	}
	// The census request must reject an engine that exposes no census
	// (the wrapper hides every method but Engine's).
	eng, _ := sim.NewEngine(pr, rng.New(3), sim.BackendDense)
	bare := struct{ sim.Engine }{eng}
	if _, err := sim.Census(bare); err == nil {
		t.Fatal("Census on an engine without a census must error")
	}
	if err := sim.AddProbe(bare, func(uint64, sim.CensusView) {}, 1); err == nil {
		t.Fatal("AddProbe on an engine without a census must error")
	}
}

// TestFinalFireNotDuplicatedAtBoundary is the budget-boundary contract on
// both backends: when Run's budget is an exact multiple of the probe
// interval, the probe's periodic fire at the final step already observed
// it, and the end-of-Run final fire must not deliver a second sample at
// the same step.
func TestFinalFireNotDuplicatedAtBoundary(t *testing.T) {
	const n = 500
	const every = 250
	const budget = 1000 // far below GS18 stabilization at n=500
	pr := gs18.MustNew(gs18.DefaultParams(n))
	for _, backend := range []sim.Backend{sim.BackendDense, sim.BackendCounts} {
		eng, err := sim.NewEngine(pr, rng.New(5), backend)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetBudget(budget)
		var fires []uint64
		if err := sim.AddProbe(eng, func(step uint64, v sim.CensusView) {
			fires = append(fires, step)
		}, every); err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		if res.Converged {
			t.Fatalf("%s: GS18 cannot stabilize in %d interactions at n=%d", backend, budget, n)
		}
		want := []uint64{250, 500, 750, 1000}
		if len(fires) != len(want) {
			t.Fatalf("%s: %d fires %v, want %v (exactly one sample at the final step)",
				backend, len(fires), fires, want)
		}
		for i, s := range fires {
			if s != want[i] {
				t.Fatalf("%s: fire %d at step %d, want %d", backend, i, s, want[i])
			}
		}
	}
}

// TestFinalFireNotDuplicatedAtBoundaryBatched is the same contract inside
// the counts backend's batched regimes, where the final step is reached by
// a probe-boundary batch split rather than an exact step; a budget off the
// cadence still gets its final fire.
func TestFinalFireNotDuplicatedAtBoundaryBatched(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(1 << 14))
	for _, bp := range batchedPolicies {
		t.Run(bp.name, func(t *testing.T) {
			for _, tc := range []struct {
				budget uint64
				want   []uint64
			}{
				{6000, []uint64{1000, 2000, 3000, 4000, 5000, 6000}},
				{6500, []uint64{1000, 2000, 3000, 4000, 5000, 6000, 6500}},
			} {
				e := sim.NewCountsEngine(pr, rng.New(11))
				e.SetBatchPolicy(bp.policy)
				e.SetBudget(tc.budget)
				var fires []uint64
				e.AddProbe(func(step uint64, v sim.CensusView) {
					fires = append(fires, step)
				}, 1000)
				res := e.Run()
				if res.Converged {
					t.Fatalf("GS18 cannot stabilize in %d interactions at n=2^14: %+v", tc.budget, res)
				}
				if len(fires) != len(tc.want) {
					t.Fatalf("budget %d: %d fires %v, want %v", tc.budget, len(fires), fires, tc.want)
				}
				for i, s := range fires {
					if s != tc.want[i] {
						t.Fatalf("budget %d: fire %d at step %d, want %d", tc.budget, i, s, tc.want[i])
					}
				}
			}
		})
	}
}

// TestFinalFireStillDeliveredOffBoundary guards the other side of the
// dedup: a run ending off the probe cadence must still get its final fire.
func TestFinalFireStillDeliveredOffBoundary(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(500))
	for _, backend := range []sim.Backend{sim.BackendDense, sim.BackendCounts} {
		eng, err := sim.NewEngine(pr, rng.New(5), backend)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetBudget(1100) // not a multiple of 250
		var fires []uint64
		if err := sim.AddProbe(eng, func(step uint64, v sim.CensusView) {
			fires = append(fires, step)
		}, 250); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		want := []uint64{250, 500, 750, 1000, 1100}
		if len(fires) != len(want) {
			t.Fatalf("%s: fires %v, want %v", backend, fires, want)
		}
		for i, s := range fires {
			if s != want[i] {
				t.Fatalf("%s: fire %d at step %d, want %d", backend, i, s, want[i])
			}
		}
	}
}
