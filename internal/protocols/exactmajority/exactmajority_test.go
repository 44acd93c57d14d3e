package exactmajority

import (
	"slices"
	"testing"
	"testing/quick"

	"popelect/internal/rng"
	"popelect/internal/sim"
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
	cases := []struct{ r, i, wantR, wantI uint32 }{
		{StrongX, StrongY, WeakX, WeakY}, // cancellation
		{StrongY, StrongX, WeakY, WeakX},
		{WeakY, StrongX, WeakX, StrongX}, // conversion
		{WeakX, StrongY, WeakY, StrongY},
		{StrongX, StrongX, StrongX, StrongX}, // null interactions
		{WeakX, WeakY, WeakX, WeakY},
		{WeakY, WeakX, WeakY, WeakX},
		{StrongX, WeakY, StrongX, WeakY}, // conversion is responder-side only
		{WeakX, StrongX, WeakX, StrongX},
	}
	for _, c := range cases {
		nr, ni := p.Delta(c.r, c.i)
		if nr != c.wantR || ni != c.wantI {
			t.Errorf("Delta(%d, %d) = (%d, %d), want (%d, %d)", c.r, c.i, nr, ni, c.wantR, c.wantI)
		}
	}
}

// TestMarginInvariant verifies the protocol's defining property: the
// difference of strong counts never changes.
func TestMarginInvariant(t *testing.T) {
	p, _ := New(100, 60)
	r := sim.NewRunner(p, rng.New(3))
	margin := func() int64 { return r.Counts()[StrongX] - r.Counts()[StrongY] }
	want := margin()
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		if got := margin(); got != want {
			t.Fatalf("step %d: margin drifted %d → %d", step, want, got)
		}
	})
	r.Run()
}

// TestExactness: the initial majority always wins, even with margin 1 —
// the "exact" in exact majority, checked across seeds.
func TestExactness(t *testing.T) {
	n := 100
	for seed := uint64(0); seed < 10; seed++ {
		for _, initialX := range []int{51, 49, 90, 10} {
			p, _ := New(n, initialX)
			r := sim.NewRunner(p, rng.New(seed))
			res := r.Run()
			if !res.Converged {
				t.Fatalf("seed %d x=%d: %+v", seed, initialX, res)
			}
			w, ok := p.Winner(res.Counts)
			if !ok {
				t.Fatalf("no winner: %v", res.Counts)
			}
			want := 1
			if initialX < n-initialX {
				want = -1
			}
			if w != want {
				t.Fatalf("seed %d x=%d: winner %d, want %d (counts %v)",
					seed, initialX, w, want, res.Counts)
			}
		}
	}
}

// TestTieDeadlocks: an exact tie annihilates every strong opinion, leaving
// an inert all-weak configuration reported as a tie.
func TestTieDeadlocks(t *testing.T) {
	p, _ := New(50, 25)
	r := sim.NewRunner(p, rng.New(5))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	if res.Counts[StrongX] != 0 || res.Counts[StrongY] != 0 {
		t.Fatalf("strong opinions remain after a tie: %v", res.Counts)
	}
	if w, ok := p.Winner(res.Counts); !ok || w != 0 {
		t.Fatalf("tie reported as %d", w)
	}
}

func TestQuickMajorityAlwaysExact(t *testing.T) {
	f := func(seed uint64, xRaw uint8) bool {
		n := 40
		x := int(xRaw) % (n + 1)
		if 2*x == n {
			return true // ties covered separately
		}
		p, _ := New(n, x)
		r := sim.NewRunner(p, rng.New(seed))
		res := r.Run()
		if !res.Converged {
			return false
		}
		w, ok := p.Winner(res.Counts)
		if !ok {
			return false
		}
		if x > n-x {
			return w == 1
		}
		return w == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMetadata(t *testing.T) {
	p, _ := New(10, 4)
	if p.Name() == "" || p.N() != 10 || p.NumClasses() != 4 {
		t.Fatal("metadata broken")
	}
	if p.Leader(StrongX) {
		t.Fatal("no leaders in majority")
	}
	if states, ends, err := sim.InitRuns(p); err != nil ||
		!slices.Equal(states, []uint32{StrongX, StrongY}) || !slices.Equal(ends, []int64{4, 10}) {
		t.Fatalf("initial split broken: runs %v %v, %v", states, ends, err)
	}
	if _, ok := p.Winner([]int64{5, 5, 0, 0}); ok {
		t.Fatal("winner before stability")
	}
	// All-X start is immediately stable.
	allX, _ := New(10, 10)
	if !allX.Stable([]int64{10, 0, 0, 0}) {
		t.Fatal("unanimous start must be stable")
	}
	if w, ok := allX.Winner([]int64{10, 0, 0, 0}); !ok || w != 1 {
		t.Fatal("unanimous winner broken")
	}
}

var _ sim.Enumerable = (*Protocol)(nil)

// TestCountsBackendExactMajority checks the invariant the protocol is named
// for on the counts backend: the initial strong-opinion margin decides the
// winner exactly.
func TestCountsBackendExactMajority(t *testing.T) {
	p, _ := New(4000, 2040) // margin of 80 toward X
	eng, err := sim.NewEngine(p, rng.New(11), sim.BackendCounts)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	if w, ok := p.Winner(res.Counts); !ok || w != 1 {
		t.Fatalf("winner %d (ok=%v), want X despite the census-only simulation", w, ok)
	}
}
