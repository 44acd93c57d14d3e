package gs18

import (
	"math"
	"testing"

	"popelect/internal/junta"
	"popelect/internal/phaseclock"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/simtest"
	"popelect/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultParams(1024)); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	bad := []Params{
		{N: 1, Gamma: 36, Phi: 3},
		{N: 100, Gamma: 7, Phi: 3},
		{N: 100, Gamma: 36, Phi: 1},
		{N: 100, Gamma: 36, Phi: 16},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) should fail", p)
		}
	}
}

func TestChoosePhi(t *testing.T) {
	for _, n := range []int{256, 1 << 10, 1 << 14, 1 << 17, 1 << 20} {
		phi := ChoosePhi(n)
		if phi < 2 || phi > 8 {
			t.Errorf("ChoosePhi(%d) = %d out of range", n, phi)
		}
	}
	// Larger populations should not need smaller caps.
	if ChoosePhi(1<<20) < ChoosePhi(1<<10) {
		t.Error("Phi should grow (weakly) with n")
	}
}

func TestElectsOneLeader(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		pr := MustNew(DefaultParams(n))
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol { return pr },
			sim.TrialConfig{Trials: 10, Seed: uint64(n)}))
		for i, res := range rs {
			if !res.Converged || res.Leaders != 1 {
				t.Fatalf("n=%d trial %d: %+v", n, i, res)
			}
		}
	}
}

func TestJuntaSizeInWindow(t *testing.T) {
	n := 1 << 13
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr, rng.New(5))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	cnt := 0
	for _, s := range r.Population() {
		if pr.Level(s) == uint8(pr.params.Phi) {
			cnt++
		}
	}
	lo, hi := junta.JuntaSizeBounds(n)
	if float64(cnt) < lo/3 || float64(cnt) > 3*hi {
		t.Fatalf("junta size %d outside [%v, %v]", cnt, lo/3, 3*hi)
	}
}

func TestCandidateCountMonotoneAfterClimb(t *testing.T) {
	// Once no agent is climbing, the candidate count never increases.
	pr := MustNew(DefaultParams(512))
	r := sim.NewRunner(pr, rng.New(7))
	prevCand := int64(-1)
	climbed := false
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		c := r.Counts()
		if c[ClassClimbing] == 0 {
			if climbed && c[ClassCandidate] > prevCand {
				t.Fatalf("step %d: candidates rose %d → %d after climbing ended",
					step, prevCand, c[ClassCandidate])
			}
			climbed = true
			prevCand = c[ClassCandidate]
		}
	})
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
}

func TestStatesAreLogLog(t *testing.T) {
	// GS18 uses O(log log n) states: far fewer distinct states than the
	// O(log n)-state lottery at the same n (checked against a loose
	// absolute bound here; the cross-protocol comparison is in Table 1).
	pr := MustNew(DefaultParams(1 << 12))
	r := sim.NewRunner(pr, rng.New(11))
	r.TrackStates = true
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	// Γ·(levels·2 + candidate machinery) with Γ=36, Φ=3: well under 2000.
	if res.DistinctStates > 2000 {
		t.Fatalf("distinct states = %d, too many", res.DistinctStates)
	}
	if res.DistinctStates < 36 {
		t.Fatalf("distinct states = %d, implausibly few", res.DistinctStates)
	}
}

func TestPolylogTime(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	mean := func(n int) float64 {
		pr := MustNew(DefaultParams(n))
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol { return pr },
			sim.TrialConfig{Trials: 5, Seed: uint64(n)}))
		if !sim.AllConverged(rs) {
			t.Fatalf("n=%d not converged", n)
		}
		return stats.Mean(sim.ParallelTimes(rs))
	}
	t1 := mean(1 << 10)
	t16 := mean(1 << 14)
	// Θ(log² n): 16× population → (14/10)² ≈ 2× parallel time at most,
	// far from linear growth.
	if t16 > 6*t1 {
		t.Fatalf("parallel time grew %0.f → %.0f over 16× n", t1, t16)
	}
	// And the absolute scale is polylogarithmic, nowhere near Θ(n).
	if t16 > float64(1<<14) {
		t.Fatalf("parallel time %.0f exceeds n", t16)
	}
	_ = math.Log
}

// TestDefaultParamsDeriveGamma pins the single-source-of-truth contract:
// GS18's default Γ comes from phaseclock.DefaultGamma, so it scales with
// the population instead of sitting at the historical 36.
func TestDefaultParamsDeriveGamma(t *testing.T) {
	for _, n := range []int{128, 1 << 18, 1 << 20, 10_000_000} {
		if g, want := DefaultParams(n).Gamma, phaseclock.DefaultGamma(n); g != want {
			t.Errorf("DefaultParams(%d).Gamma = %d, want derived %d", n, g, want)
		}
	}
	if g := DefaultParams(10_000_000).Gamma; g <= 36 {
		t.Fatalf("Γ(10⁷) = %d: still in the tearing regime of the fixed constant", g)
	}
}

// TestClockSpanRegression pins the PR 3 tearing signature away end to end:
// a full GS18 election at n = 2²⁰ on the counts backend under the faithful
// adaptive batch policy must stabilize with the bulk (99%-mass) phase span
// staying under the derived Γ's wrap window Γ/2 at every census probe.
// Under the old hardwired Γ = 36 this measure is healthy at 2²⁰ but tears
// at n ≈ 10⁷ (all phases occupied, elimination degrading to pairwise
// duels); the derived Γ(n) must keep the margin at every size, and this
// test is the laptop-scale canary for the instrumentation and the bound.
func TestClockSpanRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full counts election at n=2²⁰ (~15s)")
	}
	n := 1 << 20
	pr := MustNew(DefaultParams(n))
	gamma := pr.params.Gamma
	eng, err := sim.NewEngine(pr, rng.New(42), sim.BackendCounts)
	if err != nil {
		t.Fatal(err)
	}
	eng.(*sim.CountsEngine).SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
	meter := phaseclock.NewSpanMeter(gamma)
	probe := func(step uint64, v sim.CensusView) {
		meter.Begin()
		v.VisitStates(func(s uint32, count int64) { meter.Add(uint8(s&phaseMask), count) })
		meter.End()
	}
	if err := sim.AddProbe(eng, probe, uint64(n)); err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("adaptive counts election at n=2²⁰: %+v", res)
	}
	if meter.MaxBulk() >= gamma/2 {
		t.Fatalf("bulk phase span %d reached the Γ/2 window %d (Γ=%d): the tearing signature is back",
			meter.MaxBulk(), gamma/2, gamma)
	}
	if meter.MaxBulk() == 0 {
		t.Fatal("probes measured no phases; instrumentation broken")
	}
}

func TestMetadata(t *testing.T) {
	pr := MustNew(DefaultParams(128))
	if pr.Name() == "" || pr.N() != 128 || pr.NumClasses() != 3 {
		t.Fatal("metadata broken")
	}
	if states, ends, err := sim.InitRuns(pr); err != nil ||
		len(states) != 1 || states[0] != 0 || ends[0] != 128 {
		t.Fatalf("agents start at zero state: runs %v %v, %v", states, ends, err)
	}
	if pr.Leader(0) {
		t.Fatal("initial agents are not candidates")
	}
	s := uint32(candBit)
	if !pr.Leader(s) || pr.Class(s) != ClassCandidate {
		t.Fatal("candidate classification broken")
	}
	if !pr.Stable([]int64{0, 127, 1}) || pr.Stable([]int64{1, 126, 1}) || pr.Stable([]int64{0, 126, 2}) {
		t.Fatal("stability predicate broken")
	}
}

// Enumerable contract: the counts backend requires the full finite state
// space; see also sim's cross-backend tests, which check that a dense run
// never leaves the enumeration.
var _ sim.Enumerable = (*Protocol)(nil)

func TestStatesEnumeration(t *testing.T) {
	pr := MustNew(DefaultParams(10000))
	states := pr.States()
	want := int(pr.gamma) * int(pr.phi+1) * 2 * 2 * 2 * 3 * 2 * 3
	if len(states) != want {
		t.Fatalf("States() returned %d states, want %d", len(states), want)
	}
	seen := make(map[uint32]struct{}, len(states))
	for _, s := range states {
		if _, dup := seen[s]; dup {
			t.Fatalf("duplicate state %#x in enumeration", s)
		}
		seen[s] = struct{}{}
		if c := pr.Class(s); int(c) >= pr.NumClasses() {
			t.Fatalf("state %#x has class %d out of range", s, c)
		}
	}
	initial, _, err := sim.InitRuns(pr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range initial {
		if _, ok := seen[s]; !ok {
			t.Fatal("initial state missing from enumeration")
		}
	}
}

func TestCountsBackendElects(t *testing.T) {
	pr := MustNew(DefaultParams(3000))
	eng, err := sim.NewEngine(pr, rng.New(5), sim.BackendCounts)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("counts backend: %+v", res)
	}
}
