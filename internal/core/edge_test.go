package core

import (
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

// Additional edge-case tests for interactions between rules, clock
// relaying, and the W-mediated drag epidemic.

func TestClockRelayedByEveryRole(t *testing.T) {
	pr := testProto(t)
	ahead := mkCoin(12, 3, true) // any initiator carrying phase 12
	for _, s := range []State{
		mkZero(3), mkX(3), mkCoin(3, 0, true), mkInhib(3, 0, true, false),
		mkLeader(3, ModeWithdrawn, FlipNone, false, 0, 0), mkD(3),
	} {
		nr, _ := pr.Delta(s, ahead)
		if nr.Phase() != 12 {
			t.Errorf("%v did not relay the clock: phase %d", s, nr.Phase())
		}
		if nr.Role() != s.Role() {
			t.Errorf("%v changed role while relaying", s)
		}
	}
}

func TestBoundaryHalfInteractionIsInert(t *testing.T) {
	pr := testProto(t)
	// Responder crosses from early (17) into late (18): neither early nor
	// late rules may fire.
	lead := mkLeader(17, ModeActive, FlipNone, false, 8, 0)
	nr, _ := pr.Delta(lead, mkCoin(18, 3, true))
	if nr.FlipVal() != FlipNone {
		t.Fatalf("flip on a boundary interaction: %v", nr)
	}
	lead = mkLeader(17, ModeActive, FlipTails, false, 8, 0)
	informed := mkLeader(18, ModePassive, FlipHeads, true, 8, 0)
	nr, _ = pr.Delta(lead, informed)
	if nr.HeadsSeen() || nr.Mode() != ModeActive {
		t.Fatalf("broadcast on a boundary interaction: %v", nr)
	}
}

func TestPassResetAndRule9Compose(t *testing.T) {
	pr := testProto(t)
	// A passive leader wraps its clock (reset) while meeting a
	// higher-drag withdrawn leader: both the reset and rule (9) apply.
	lead := mkLeader(35, ModePassive, FlipTails, true, 0, 1)
	senior := mkLeader(0, ModeWithdrawn, FlipNone, false, 0, 3)
	nr, _ := pr.Delta(lead, senior)
	if nr.Mode() != ModeWithdrawn || nr.LeaderDrag() != 3 {
		t.Fatalf("rule 9 skipped on a pass: %v", nr)
	}
	if nr.FlipVal() != FlipNone || nr.HeadsSeen() {
		t.Fatalf("reset skipped on a pass: %v", nr)
	}
}

// TestDragValueChainsThroughWithdrawn verifies the epidemic that makes
// Lemma 7.4 fast: a W agent that adopted a high drag value propagates it to
// other leaders as the initiator.
func TestDragValueChainsThroughWithdrawn(t *testing.T) {
	pr := testProto(t)
	carrier := mkLeader(earlyPhase, ModeWithdrawn, FlipNone, false, 0, 0)
	source := mkLeader(earlyPhase, ModeActive, FlipHeads, true, 0, 3)
	// Step 1: the W carrier adopts drag 3 from the active source.
	carrier, _ = pr.Delta(carrier, source)
	if carrier.LeaderDrag() != 3 || carrier.Mode() != ModeWithdrawn {
		t.Fatalf("carrier did not adopt: %v", carrier)
	}
	// Step 2: a passive at drag 1 meets the carrier and withdraws.
	passive := mkLeader(earlyPhase, ModePassive, FlipNone, false, 0, 1)
	nr, _ := pr.Delta(passive, carrier)
	if nr.Mode() != ModeWithdrawn || nr.LeaderDrag() != 3 {
		t.Fatalf("passive did not withdraw on carried drag: %v", nr)
	}
}

func TestHeadsInfoRelayedByWithdrawn(t *testing.T) {
	pr := testProto(t)
	// W leaders participate in the heads epidemic (rule 7 applies to any
	// leader mode), which is what makes the broadcast complete in half a
	// round even after most candidates have withdrawn.
	w := mkLeader(latePhase, ModeWithdrawn, FlipNone, false, 8, 0)
	informed := mkLeader(latePhase, ModeActive, FlipHeads, true, 8, 0)
	nr, _ := pr.Delta(w, informed)
	if !nr.HeadsSeen() {
		t.Fatalf("W did not relay heads info: %v", nr)
	}
	if nr.Mode() != ModeWithdrawn {
		t.Fatalf("W changed mode: %v", nr)
	}
}

func TestHeadsSeenClearedOnlyAtPass(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(latePhase, ModeActive, FlipHeads, true, 8, 0)
	// Meeting anything mid-round keeps the flag.
	nr, _ := pr.Delta(lead, mkD(latePhase))
	if !nr.HeadsSeen() {
		t.Fatalf("heads info lost mid-round: %v", nr)
	}
}

func TestLateCreatedLeaderStartsFresh(t *testing.T) {
	pr := testProto(t)
	// Two stragglers in state 0 meeting long after the clock started
	// still produce a fresh warm-up candidate.
	nr, ni := pr.Delta(mkZero(20), mkZero(20))
	if nr.Role() != RoleX {
		t.Fatalf("responder: %v", nr)
	}
	if ni.Cnt() != 9 || ni.Mode() != ModeActive || ni.Phase() != 20 {
		t.Fatalf("late leader: %v", ni)
	}
}

func TestInitiatorPhaseNeverChanges(t *testing.T) {
	pr := testProto(t)
	pairs := []struct{ r, i State }{
		{mkZero(3), mkZero(30)},
		{mkX(3), mkX(30)},
		{mkLeader(3, ModeActive, FlipNone, false, 5, 0), mkLeader(30, ModeActive, FlipNone, false, 5, 0)},
		{mkCoin(3, 1, false), mkCoin(30, 2, true)},
	}
	for _, p := range pairs {
		_, ni := pr.Delta(p.r, p.i)
		if ni.Phase() != p.i.Phase() {
			t.Errorf("initiator %v phase changed to %d", p.i, ni.Phase())
		}
	}
}

// TestTwoAgentPopulation is the smallest legal population: the first
// interaction must already elect the leader.
func TestTwoAgentPopulation(t *testing.T) {
	pr := MustNew(DefaultParams(2))
	r := sim.NewRunner(pr.Words(), rng.New(1))
	res := r.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("%+v", res)
	}
	if res.Interactions != 1 {
		t.Fatalf("n=2 must converge in exactly 1 interaction, took %d", res.Interactions)
	}
}

// TestOddPopulationLeftoverZero: with n = 3 one agent can be left in state
// 0 forever; the configuration is still stable.
func TestOddPopulationLeftoverZero(t *testing.T) {
	pr := MustNew(DefaultParams(3))
	for seed := uint64(0); seed < 10; seed++ {
		r := sim.NewRunner(pr.Words(), rng.New(seed))
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestPopulationsAreReproducible(t *testing.T) {
	run := func() []uint32 {
		pr := MustNew(Params{N: 128, Gamma: 36, Phi: 2, Psi: 4})
		r := sim.NewRunner(pr.Words(), rng.New(77))
		r.Run()
		return append([]uint32(nil), r.Population()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("agent %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestNoDragStillLasVegas: with the drag counter ablated, rule (11) alone
// must still deliver exactly one leader (the GS18-style fallback).
func TestNoDragStillLasVegas(t *testing.T) {
	pr := MustNew(Params{N: 64, Gamma: 36, Phi: 1, Psi: 4, NoDrag: true})
	for seed := uint64(0); seed < 10; seed++ {
		r := sim.NewRunner(pr.Words(), rng.New(seed))
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

// TestGammaVariants: the protocol stays correct across clock resolutions,
// including ones large enough to slow every round.
func TestGammaVariants(t *testing.T) {
	for _, gamma := range []int{12, 36, 72} {
		pr := MustNew(Params{N: 128, Gamma: gamma, Phi: 1, Psi: 4})
		r := sim.NewRunner(pr.Words(), rng.New(5))
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			t.Fatalf("Γ=%d: %+v", gamma, res)
		}
	}
}
