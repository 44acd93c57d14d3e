package sim

import (
	"math"
	"testing"

	"popelect/internal/rng"
)

// duel is the classic constant-state leader-election protocol used as a test
// fixture: every agent starts as a leader; when two leaders meet, the
// initiator survives and the responder becomes a follower.
type duel struct{ n int }

func (d duel) Name() string                   { return "duel" }
func (d duel) N() int                         { return d.n }
func (d duel) Init(yield func(uint32, int64)) { yield(1, int64(d.n)) }
func (d duel) Delta(r, i uint32) (uint32, uint32) {
	if r == 1 && i == 1 {
		return 0, 1
	}
	return r, i
}
func (d duel) NumClasses() int       { return 2 }
func (d duel) Class(s uint32) uint8  { return uint8(s) }
func (d duel) Leader(s uint32) bool  { return s == 1 }
func (d duel) Stable(c []int64) bool { return c[1] == 1 }

// infect is a one-way epidemic fixture: agent 0 starts infected; infection
// spreads from initiator to responder. Stable when everyone is infected.
type infect struct{ n int }

func (e infect) Name() string { return "infect" }
func (e infect) N() int       { return e.n }
func (e infect) Init(yield func(uint32, int64)) {
	yield(1, 1)
	yield(0, int64(e.n-1))
}
func (e infect) Delta(r, i uint32) (uint32, uint32) {
	if i == 1 {
		return 1, 1
	}
	return r, i
}
func (e infect) NumClasses() int       { return 2 }
func (e infect) Class(s uint32) uint8  { return uint8(s) }
func (e infect) Leader(s uint32) bool  { return false }
func (e infect) Stable(c []int64) bool { return c[1] == int64(e.n) }

func TestRunnerDuelElectsOneLeader(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100} {
		r := NewRunner(duel{n}, rng.New(uint64(n)))
		res := r.Run()
		if !res.Converged {
			t.Fatalf("n=%d: %v", n, res)
		}
		if res.Leaders != 1 {
			t.Fatalf("n=%d: %d leaders", n, res.Leaders)
		}
		if res.LeaderID < 0 || res.LeaderID >= n {
			t.Fatalf("n=%d: bad leader id %d", n, res.LeaderID)
		}
		if got := r.Population()[res.LeaderID]; got != 1 {
			t.Fatalf("leader id does not hold leader state: %v", got)
		}
	}
}

func TestRunnerCountsMatchPopulation(t *testing.T) {
	r := NewRunner(duel{50}, rng.New(7))
	for i := 0; i < 500; i++ {
		r.Step()
	}
	var manual [2]int64
	for _, s := range r.Population() {
		manual[s]++
	}
	counts := r.Counts()
	if counts[0] != manual[0] || counts[1] != manual[1] {
		t.Fatalf("incremental counts %v != recount %v", counts, manual)
	}
	if int64(r.Leaders()) != manual[1] {
		t.Fatalf("leaders %d != recount %d", r.Leaders(), manual[1])
	}
}

func TestRunnerDeterminism(t *testing.T) {
	run := func() Result {
		r := NewRunner(duel{64}, rng.New(99))
		return r.Run()
	}
	a, b := run(), run()
	if a.Interactions != b.Interactions || a.LeaderID != b.LeaderID {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunnerBudgetExhaustion(t *testing.T) {
	r := NewRunner(duel{1000}, rng.New(1))
	r.MaxInteractions = 5
	res := r.Run()
	if res.Converged {
		t.Fatal("cannot converge from 1000 leaders in 5 interactions")
	}
	if res.Interactions != 5 {
		t.Fatalf("ran %d interactions, want 5", res.Interactions)
	}
}

func TestRunnerImmediateStability(t *testing.T) {
	// A population of followers plus one leader is already stable under
	// duel's predicate... duel starts all-leader, so use n=2 and force
	// one elimination, then Reset must return to the initial state.
	r := NewRunner(duel{2}, rng.New(3))
	res := r.Run()
	if !res.Converged || res.Interactions != 1 {
		t.Fatalf("n=2 duel should converge in exactly 1 interaction: %+v", res)
	}
}

func TestRunnerReset(t *testing.T) {
	r := NewRunner(duel{20}, rng.New(5))
	r.Run()
	r.Reset()
	if r.Steps() != 0 {
		t.Fatal("Reset must clear the step counter")
	}
	if r.Leaders() != 20 {
		t.Fatalf("Reset must restore all 20 leaders, got %d", r.Leaders())
	}
	res := r.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("run after reset failed: %+v", res)
	}
}

func TestRunnerEpidemicCompletes(t *testing.T) {
	n := 200
	r := NewRunner(infect{n}, rng.New(11))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("epidemic did not complete: %+v", res)
	}
	if res.Counts[1] != int64(n) {
		t.Fatalf("final census %v", res.Counts)
	}
	// One-way epidemic needs at least n-1 infections, so at least n-1
	// interactions.
	if res.Interactions < uint64(n-1) {
		t.Fatalf("impossibly fast epidemic: %d interactions", res.Interactions)
	}
}

func TestRunnerHooks(t *testing.T) {
	n := 50
	r := NewRunner(infect{n}, rng.New(13))
	var infections int
	var lastStep uint64
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		if step <= lastStep {
			t.Fatalf("hook steps must increase: %d after %d", step, lastStep)
		}
		lastStep = step
		if newR != oldR {
			infections++
		}
		if newI != oldI {
			t.Fatal("one-way epidemic must never change the initiator")
		}
	})
	res := r.Run()
	if infections != n-1 {
		t.Fatalf("observed %d infections, want %d", infections, n-1)
	}
	if lastStep != res.Interactions {
		t.Fatalf("hook saw %d steps, result says %d", lastStep, res.Interactions)
	}
}

func TestRunnerObserver(t *testing.T) {
	r := NewRunner(infect{64}, rng.New(17))
	calls := 0
	r.AddObserver(func(step uint64, pop []uint32) {
		calls++
		if len(pop) != 64 {
			t.Fatalf("observer got population of size %d", len(pop))
		}
	}, 10)
	res := r.Run()
	// Called roughly every 10 steps plus the final call.
	min := int(res.Interactions / 10)
	if calls < min {
		t.Fatalf("observer called %d times over %d steps", calls, res.Interactions)
	}
}

func TestRunnerTrackStates(t *testing.T) {
	r := NewRunner(duel{30}, rng.New(19))
	r.TrackStates = true
	res := r.Run()
	if res.DistinctStates != 2 {
		t.Fatalf("duel uses exactly 2 states, tracker saw %d", res.DistinctStates)
	}
}

func TestRunnerPanicsOnTinyPopulation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRunner must panic for n < 2")
		}
	}()
	NewRunner(duel{1}, rng.New(1))
}

func TestDefaultBudget(t *testing.T) {
	if DefaultBudget(2) == 0 {
		t.Fatal("budget must be positive")
	}
	if DefaultBudget(1<<16) <= uint64(1<<16) {
		t.Fatal("budget must exceed n")
	}
	// Small n budgets must cover the slow Θ(n²) backup regime.
	if DefaultBudget(16) < 16*16*8 {
		t.Fatalf("small-n budget too small: %d", DefaultBudget(16))
	}
}

func TestRunStepsRunsExactly(t *testing.T) {
	r := NewRunner(infect{100}, rng.New(23))
	res := r.RunSteps(37)
	if res.Interactions != 37 {
		t.Fatalf("RunSteps ran %d", res.Interactions)
	}
	res = r.RunSteps(5)
	if res.Interactions != 42 {
		t.Fatalf("cumulative steps %d, want 42", res.Interactions)
	}
}

func TestOutputString(t *testing.T) {
	if Leader.String() != "leader" || Follower.String() != "follower" {
		t.Fatal("Output.String broken")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Converged: true, Interactions: 100, N: 10, Leaders: 1}
	if r.String() == "" || r.ParallelTime() != 10 {
		t.Fatalf("result rendering broken: %q", r.String())
	}
	r.Converged = false
	if r.String() == "" {
		t.Fatal("timeout rendering broken")
	}
}

// TestObserversFireAtTheirOwnIntervals is the regression test for the
// AddObserver interval bug: every observer used to fire at the globally
// smallest registered interval instead of its own.
func TestObserversFireAtTheirOwnIntervals(t *testing.T) {
	r := NewRunner(duel{64}, rng.New(2))
	r.MaxInteractions = 1000
	var fast, slow []uint64
	r.AddObserver(func(step uint64, pop []uint32) { fast = append(fast, step) }, 10)
	r.AddObserver(func(step uint64, pop []uint32) { slow = append(slow, step) }, 250)
	res := r.Run()
	end := res.Interactions

	// Every observer also fires once at the end of Run — unless its own
	// cadence already fired at exactly that step (a run ending on an
	// interval boundary must not record a duplicate sample).
	wantFast := int(end / 10)
	if end%10 != 0 {
		wantFast++
	}
	wantSlow := int(end / 250)
	if end%250 != 0 {
		wantSlow++
	}
	if len(fast) != wantFast {
		t.Fatalf("fast observer fired %d times over %d steps, want %d", len(fast), end, wantFast)
	}
	if len(slow) != wantSlow {
		t.Fatalf("slow observer fired %d times over %d steps, want %d (interval bug: inherited the smaller interval)",
			len(slow), end, wantSlow)
	}
	for _, s := range slow[:len(slow)-1] {
		if s%250 != 0 {
			t.Fatalf("slow observer fired at step %d, not a multiple of its interval", s)
		}
	}
}

// TestDefaultBudgetOverflow is the regression test for uint64 overflow in
// the n·log²n·64 product at very large populations: the budget must
// saturate, never wrap around to a small (or zero) value.
func TestDefaultBudgetOverflow(t *testing.T) {
	if got := DefaultBudget(math.MaxInt64); got != math.MaxUint64 {
		t.Fatalf("DefaultBudget(MaxInt64) = %d, want saturation at MaxUint64", got)
	}
	// Monotonicity across the sizes the counts backend makes reachable.
	prev := uint64(0)
	for _, n := range []int{1 << 20, 1 << 30, 1 << 40, 1 << 50, 1 << 55, 1 << 62} {
		b := DefaultBudget(n)
		if b < prev {
			t.Fatalf("DefaultBudget(%d) = %d < DefaultBudget of a smaller population (%d): overflow", n, b, prev)
		}
		if b <= uint64(n) {
			t.Fatalf("DefaultBudget(%d) = %d is below the population size", n, b)
		}
		prev = b
	}
	// Sanity at a size the counts backend actually runs.
	if b := DefaultBudget(1_000_000_000); b < 900_000_000_000 {
		t.Fatalf("DefaultBudget(1e9) = %d suspiciously small", b)
	}
}

func TestSatMul(t *testing.T) {
	if got := satMul(1<<32, 1<<31); got != 1<<63 {
		t.Fatalf("satMul(2^32, 2^31) = %d", got)
	}
	if got := satMul(1<<33, 1<<31); got != math.MaxUint64 {
		t.Fatalf("satMul overflow = %d, want MaxUint64", got)
	}
}
