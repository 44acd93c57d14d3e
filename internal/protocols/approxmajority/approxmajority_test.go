package approxmajority

import (
	"math"
	"slices"
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/simtest"
	"popelect/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(10, 5); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, c := range []struct{ n, x int }{{1, 0}, {10, -1}, {10, 11}} {
		if _, err := New(c.n, c.x); err == nil {
			t.Errorf("New(%d, %d) should fail", c.n, c.x)
		}
	}
}

func TestDeltaRules(t *testing.T) {
	p, _ := New(10, 5)
	cases := []struct{ r, i, wantR uint32 }{
		{X, Y, Blank},
		{Y, X, Blank},
		{Blank, X, X},
		{Blank, Y, Y},
		{Blank, Blank, Blank},
		{X, X, X},
		{Y, Y, Y},
		{X, Blank, X},
		{Y, Blank, Y},
	}
	for _, c := range cases {
		nr, ni := p.Delta(c.r, c.i)
		if nr != c.wantR {
			t.Errorf("Delta(%d, %d) responder = %d, want %d", c.r, c.i, nr, c.wantR)
		}
		if ni != c.i {
			t.Errorf("Delta(%d, %d) changed initiator", c.r, c.i)
		}
	}
}

func TestClearMajorityWins(t *testing.T) {
	n := 1000
	for seed := uint64(0); seed < 5; seed++ {
		// 70/30 split: X must win.
		p, _ := New(n, 7*n/10)
		r := sim.NewRunner(p, rng.New(seed))
		res := r.Run()
		if !res.Converged {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		w, ok := p.Winner(res.Counts)
		if !ok || w != X {
			t.Fatalf("seed %d: winner = %d (counts %v)", seed, w, res.Counts)
		}
	}
}

func TestMinorityDirectionToo(t *testing.T) {
	n := 1000
	p, _ := New(n, 3*n/10)
	r := sim.NewRunner(p, rng.New(1))
	res := r.Run()
	w, ok := p.Winner(res.Counts)
	if !ok || w != Y {
		t.Fatalf("winner = %d (counts %v)", w, res.Counts)
	}
}

func TestConsensusFromTie(t *testing.T) {
	// Even from a tie the protocol converges (to either opinion).
	n := 500
	p, _ := New(n, n/2)
	r := sim.NewRunner(p, rng.New(9))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	if _, ok := p.Winner(res.Counts); !ok {
		t.Fatalf("no winner: %v", res.Counts)
	}
}

// TestLogTimeScaling verifies the O(n log n) interaction bound's shape.
func TestLogTimeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	var ratios []float64
	for _, n := range []int{1 << 10, 1 << 13} {
		rs := simtest.MustTrials(t)(sim.RunTrials(func(int) sim.Protocol {
			p, _ := New(n, 7*n/10)
			return p
		}, sim.TrialConfig{Trials: 8, Seed: uint64(n)}))
		if !sim.AllConverged(rs) {
			t.Fatalf("n=%d: not converged", n)
		}
		ratios = append(ratios, stats.Mean(sim.Interactions(rs))/(float64(n)*math.Log(float64(n))))
	}
	for _, r := range ratios {
		if r < 0.5 || r > 10 {
			t.Fatalf("interactions/(n ln n) = %v", r)
		}
	}
}

func TestOpinionSumInvariant(t *testing.T) {
	// |X - Y| changes by at most 1 per interaction, and X+Y+B = n.
	n := 200
	p, _ := New(n, 120)
	r := sim.NewRunner(p, rng.New(13))
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		c := r.Counts()
		if c[Blank]+c[X]+c[Y] != int64(n) {
			t.Fatalf("census leaked: %v", c)
		}
	})
	r.Run()
}

func TestMetadata(t *testing.T) {
	p, _ := New(10, 4)
	if p.Name() == "" || p.N() != 10 || p.NumClasses() != 3 {
		t.Fatal("metadata broken")
	}
	if p.Leader(X) {
		t.Fatal("no leaders in majority")
	}
	if states, ends, err := sim.InitRuns(p); err != nil ||
		!slices.Equal(states, []uint32{X, Y}) || !slices.Equal(ends, []int64{4, 10}) {
		t.Fatalf("initial split broken: runs %v %v, %v", states, ends, err)
	}
	if !p.Stable([]int64{0, 10, 0}) || p.Stable([]int64{1, 9, 0}) {
		t.Fatal("stability broken")
	}
	if _, ok := p.Winner([]int64{1, 9, 0}); ok {
		t.Fatal("winner before consensus")
	}
}

// TestStableOnChurnedCensus checks consensus against the live census
// total: under churn it drifts from Size (10 here), and a census of 13
// agents with 10 X and 3 Y has not converged, while 7 X alone has.
func TestStableOnChurnedCensus(t *testing.T) {
	p, _ := New(10, 4)
	for _, tc := range []struct {
		counts []int64
		winner uint32
		ok     bool
	}{
		{[]int64{0, 7, 0}, X, true},
		{[]int64{0, 0, 13}, Y, true},
		{[]int64{0, 10, 3}, Blank, false},
		{[]int64{3, 10, 0}, Blank, false},
		{[]int64{1, 0, 6}, Blank, false},
	} {
		w, ok := p.Winner(tc.counts)
		if w != tc.winner || ok != tc.ok || p.Stable(tc.counts) != tc.ok {
			t.Errorf("census %v: Winner %d, %v and Stable %v; want %d, %v", tc.counts, w, ok, p.Stable(tc.counts), tc.winner, tc.ok)
		}
	}
}
