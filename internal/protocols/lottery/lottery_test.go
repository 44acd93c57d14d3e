package lottery

import (
	"testing"

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
		{N: 1, Gamma: 36, MaxRank: 10, JuntaRank: 4, WarmupReads: 5},
		{N: 100, Gamma: 7, MaxRank: 10, JuntaRank: 4, WarmupReads: 5},
		{N: 100, Gamma: 36, MaxRank: 1, JuntaRank: 1, WarmupReads: 5},
		{N: 100, Gamma: 36, MaxRank: 64, JuntaRank: 4, WarmupReads: 5},
		{N: 100, Gamma: 36, MaxRank: 10, JuntaRank: 10, WarmupReads: 5},
		{N: 100, Gamma: 36, MaxRank: 10, JuntaRank: 0, WarmupReads: 5},
		{N: 100, Gamma: 36, MaxRank: 10, JuntaRank: 4, WarmupReads: 9},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) should fail", p)
		}
	}
}

func TestDefaultParamsScale(t *testing.T) {
	small := DefaultParams(64)
	big := DefaultParams(1 << 20)
	if big.MaxRank <= small.MaxRank {
		t.Fatal("rank cap must grow with n (O(log n) states)")
	}
	if big.JuntaRank <= 0 || big.JuntaRank >= big.MaxRank {
		t.Fatal("junta threshold out of range")
	}
}

func TestElectsOneLeader(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		pr := MustNew(DefaultParams(n))
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol { return pr },
			sim.TrialConfig{Trials: 10, Seed: uint64(n) + 5}))
		for i, res := range rs {
			if !res.Converged || res.Leaders != 1 {
				t.Fatalf("n=%d trial %d: %+v", n, i, res)
			}
		}
	}
}

func TestWinnerHasMaxRank(t *testing.T) {
	pr := MustNew(DefaultParams(512))
	r := sim.NewRunner(pr, rng.New(3))
	res := r.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("%+v", res)
	}
	var winner uint32
	maxRank := uint32(0)
	for _, s := range r.Population() {
		if pr.RankDone(s) && pr.Rank(s) > maxRank {
			maxRank = pr.Rank(s)
		}
		if pr.Candidate(s) {
			winner = s
		}
	}
	if pr.Rank(winner) != maxRank {
		t.Fatalf("winner rank %d, population max %d", pr.Rank(winner), maxRank)
	}
}

func TestRanksGeometric(t *testing.T) {
	// After ranking completes, P(rank ≥ k+1 | rank ≥ k) ≈ 1/2.
	n := 1 << 13
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr, rng.New(17))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	counts := make([]int, pr.params.MaxRank+1)
	for _, s := range r.Population() {
		counts[pr.Rank(s)]++
	}
	// Cumulative counts.
	for k := len(counts) - 2; k >= 0; k-- {
		counts[k] += counts[k+1]
	}
	for k := 0; k+1 < len(counts) && counts[k+1] > 100; k++ {
		ratio := float64(counts[k]) / float64(counts[k+1])
		if ratio < 1.5 || ratio > 3 {
			t.Errorf("rank survival ratio at %d: %.2f, want ≈ 2", k, ratio)
		}
	}
}

func TestRankingFinishesQuickly(t *testing.T) {
	// Ranking is a per-agent geometric process: it completes for everyone
	// within O(n log n) interactions.
	n := 4096
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr, rng.New(23))
	r.RunSteps(uint64(20 * n))
	ranking := r.Counts()[ClassRanking]
	if ranking > int64(n/100) {
		t.Fatalf("%d agents still ranking after 20n interactions", ranking)
	}
}

func TestUsesMoreStatesThanLogLogProtocols(t *testing.T) {
	// The lottery's state count is Θ(log n · Γ): with rank ∈ 0..2log₂n it
	// must use hundreds of distinct states even at modest n.
	pr := MustNew(DefaultParams(1 << 12))
	r := sim.NewRunner(pr, rng.New(29))
	r.TrackStates = true
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	if res.DistinctStates < 100 {
		t.Fatalf("distinct states = %d, implausibly few for O(log n) states", res.DistinctStates)
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
	if t16 > 6*t1 {
		t.Fatalf("parallel time grew %.0f → %.0f over 16× n", t1, t16)
	}
	if t16 > float64(1<<14) {
		t.Fatalf("parallel time %.0f exceeds n", t16)
	}
}

func TestMetadata(t *testing.T) {
	pr := MustNew(DefaultParams(64))
	if pr.Name() == "" || pr.N() != 64 || pr.NumClasses() != 3 {
		t.Fatal("metadata broken")
	}
	states, ends, err := sim.InitRuns(pr)
	if err != nil || len(states) != 1 || ends[0] != 64 {
		t.Fatalf("initial runs %v %v, %v; want one run", states, ends, err)
	}
	init := states[0]
	if pr.Leader(init) {
		t.Fatal("unranked agents are not leaders yet")
	}
	if pr.Class(init) != ClassRanking {
		t.Fatal("initial class broken")
	}
	done := init | doneBit
	if !pr.Leader(done) || pr.Class(done) != ClassCandidate {
		t.Fatal("finished candidate classification broken")
	}
	lost := done &^ uint32(candBit)
	if pr.Leader(lost) || pr.Class(lost) != ClassFollower {
		t.Fatal("follower classification broken")
	}
	if !pr.Stable([]int64{0, 63, 1}) || pr.Stable([]int64{1, 62, 1}) || pr.Stable([]int64{0, 62, 2}) {
		t.Fatal("stability predicate broken")
	}
}
