package sim

import (
	"testing"
	"testing/quick"

	"popelect/internal/rng"
)

// parityToy flips a bit on both participants; used to exercise census
// bookkeeping under two-sided updates.
type parityToy struct{ n int }

func (p parityToy) Name() string    { return "parity" }
func (p parityToy) N() int          { return p.n }
func (p parityToy) Init(int) uint32 { return 0 }
func (p parityToy) Delta(r, i uint32) (uint32, uint32) {
	return r ^ 1, i ^ 1
}
func (p parityToy) NumClasses() int      { return 2 }
func (p parityToy) Class(s uint32) uint8 { return uint8(s & 1) }
func (p parityToy) Leader(s uint32) bool { return false }
func (p parityToy) Stable([]int64) bool  { return false }

func TestQuickCountsAlwaysConsistent(t *testing.T) {
	f := func(seed uint64, stepsRaw uint16) bool {
		steps := uint64(stepsRaw % 2000)
		r := NewRunner[uint32, parityToy](parityToy{32}, rng.New(seed))
		r.RunSteps(steps)
		var manual [2]int64
		for _, s := range r.Population() {
			manual[s&1]++
		}
		c := r.Counts()
		return c[0] == manual[0] && c[1] == manual[1] && manual[0]+manual[1] == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickTwoSidedUpdatesBothApplied(t *testing.T) {
	r := NewRunner[uint32, parityToy](parityToy{16}, rng.New(1))
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		if ri == ii {
			t.Fatal("scheduler sampled an agent against itself")
		}
		if newR == oldR || newI == oldI {
			t.Fatal("both participants must have flipped")
		}
		if r.Population()[ri] != newR || r.Population()[ii] != newI {
			t.Fatal("population out of sync with hook view")
		}
	})
	r.RunSteps(2000)
}

func TestQuickStepCountsExact(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a, b := uint64(aRaw%100), uint64(bRaw%100)
		r := NewRunner[uint32, parityToy](parityToy{8}, rng.New(3))
		r.RunSteps(a)
		r.RunSteps(b)
		return r.Steps() == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRunOnAlreadyStableConfiguration(t *testing.T) {
	// duel with n=2 converges in one interaction; a second Run must
	// return immediately without further steps.
	r := NewRunner[uint32, duel](duel{2}, rng.New(4))
	first := r.Run()
	again := r.Run()
	if again.Interactions != first.Interactions {
		t.Fatalf("Run on stable configuration advanced the clock: %d → %d",
			first.Interactions, again.Interactions)
	}
}
