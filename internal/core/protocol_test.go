package core

import (
	"slices"

	"popelect/internal/rng"
	"popelect/internal/sim"
	"testing"
)

// testProto returns a protocol with Φ=3, Ψ=4, Γ=36 (early half = phases
// 0..17, late half = 18..35, initial counter 2Φ+3 = 9).
func testProto(t *testing.T) *Protocol {
	t.Helper()
	pr, err := New(Params{N: 1024, Gamma: 36, Phi: 3, Psi: 4})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

const (
	earlyPhase = 5  // within 0..17
	latePhase  = 25 // within 18..35
)

func mkZero(phase uint8) State { return State(0).WithPhase(phase) }
func mkX(phase uint8) State    { return State(0).WithPhase(phase).withRolePayload(RoleX, 0) }
func mkD(phase uint8) State    { return State(0).WithPhase(phase).withRolePayload(RoleD, 0) }
func mkCoin(phase, lvl uint8, stopped bool) State {
	return State(0).WithPhase(phase).withCoin(lvl, stopped)
}
func mkInhib(phase, drag uint8, stopped, high bool) State {
	return State(0).WithPhase(phase).withInhib(drag, stopped, high)
}
func mkLeader(phase uint8, m LeaderMode, f Flip, heads bool, cnt, drag uint8) State {
	return State(0).WithPhase(phase).withLeader(m, f, heads, cnt, drag)
}

// --- Rule (1): symmetry breaking ---

func TestRule1ZeroPairSplits(t *testing.T) {
	pr := testProto(t)
	nr, ni := pr.Delta(mkZero(earlyPhase), mkZero(earlyPhase))
	if nr.Role() != RoleX {
		t.Fatalf("responder = %v, want X", nr)
	}
	if ni.Role() != RoleL || ni.Mode() != ModeActive || ni.FlipVal() != FlipNone ||
		ni.HeadsSeen() || ni.Cnt() != 9 || ni.LeaderDrag() != 0 {
		t.Fatalf("initiator = %v, want fresh active candidate with cnt=9", ni)
	}
}

func TestRule1XPairSplits(t *testing.T) {
	pr := testProto(t)
	nr, ni := pr.Delta(mkX(earlyPhase), mkX(earlyPhase))
	if nr.Role() != RoleC || nr.CoinLevel() != 0 || nr.CoinStopped() {
		t.Fatalf("responder = %v, want advancing level-0 coin", nr)
	}
	if ni.Role() != RoleI || ni.InhibDrag() != 0 || ni.InhibStopped() || ni.InhibHigh() {
		t.Fatalf("initiator = %v, want fresh low inhibitor", ni)
	}
}

func TestRule1NeedsMatchingRoles(t *testing.T) {
	pr := testProto(t)
	// 0 meeting X: nothing happens to either role.
	nr, ni := pr.Delta(mkZero(earlyPhase), mkX(earlyPhase))
	if nr.Role() != RoleZero || ni.Role() != RoleX {
		t.Fatalf("0+X must not transition: %v, %v", nr, ni)
	}
	// X meeting a coin: nothing.
	nr, ni = pr.Delta(mkX(earlyPhase), mkCoin(earlyPhase, 0, false))
	if nr.Role() != RoleX || ni.Role() != RoleC {
		t.Fatalf("X+C must not transition roles: %v, %v", nr, ni)
	}
}

// --- Rule (2): straggler deactivation ---

func TestRule2DeactivatesOnPass(t *testing.T) {
	pr := testProto(t)
	// Responder at phase 35 meets an initiator at phase 0 (ahead across
	// the wrap): the follower adopts 0, a pass through 0.
	for _, s := range []State{mkZero(35), mkX(35)} {
		nr, _ := pr.Delta(s, mkCoin(0, 1, true))
		if nr.Role() != RoleD {
			t.Fatalf("%v did not deactivate on pass: %v", s, nr)
		}
		if nr.Phase() != 0 {
			t.Fatalf("deactivated straggler has phase %d, want 0", nr.Phase())
		}
	}
}

func TestRule2TakesPrecedenceOverRule1(t *testing.T) {
	pr := testProto(t)
	// Responder 0 at phase 35 meets another 0 at phase 0: the pass fires
	// rule (2), not rule (1), and the initiator stays 0.
	nr, ni := pr.Delta(mkZero(35), mkZero(0))
	if nr.Role() != RoleD {
		t.Fatalf("responder = %v, want D", nr)
	}
	if ni.Role() != RoleZero {
		t.Fatalf("initiator = %v, want untouched 0", ni)
	}
}

// --- Clock relaying ---

func TestClockFollowerAdoptsMax(t *testing.T) {
	pr := testProto(t)
	nr, ni := pr.Delta(mkD(3), mkCoin(9, 0, true))
	if nr.Phase() != 9 {
		t.Fatalf("follower phase = %d, want 9", nr.Phase())
	}
	if ni.Phase() != 9 {
		t.Fatal("initiator phase must never change")
	}
}

func TestClockJuntaTicks(t *testing.T) {
	pr := testProto(t)
	// A level-Φ coin is a clock leader: meeting its own phase it advances.
	nr, _ := pr.Delta(mkCoin(9, 3, true), mkD(9))
	if nr.Phase() != 10 {
		t.Fatalf("junta phase = %d, want 10", nr.Phase())
	}
	// A lower-level coin is a follower.
	nr, _ = pr.Delta(mkCoin(9, 2, true), mkD(9))
	if nr.Phase() != 9 {
		t.Fatalf("non-junta coin phase = %d, want 9", nr.Phase())
	}
}

// --- Coin preprocessing (Section 5) ---

func TestCoinClimbs(t *testing.T) {
	pr := testProto(t)
	nr, _ := pr.Delta(mkCoin(earlyPhase, 1, false), mkCoin(earlyPhase, 1, true))
	if nr.CoinLevel() != 2 || nr.CoinStopped() {
		t.Fatalf("coin = %v, want advancing level 2", nr)
	}
	// Higher-level initiator also lets it climb.
	nr, _ = pr.Delta(mkCoin(earlyPhase, 1, false), mkCoin(earlyPhase, 3, true))
	if nr.CoinLevel() != 2 || nr.CoinStopped() {
		t.Fatalf("coin = %v, want advancing level 2", nr)
	}
}

func TestCoinStops(t *testing.T) {
	pr := testProto(t)
	// Meeting a lower-level coin stops it.
	nr, _ := pr.Delta(mkCoin(earlyPhase, 2, false), mkCoin(earlyPhase, 1, false))
	if nr.CoinLevel() != 2 || !nr.CoinStopped() {
		t.Fatalf("coin = %v, want stopped at 2", nr)
	}
	// Meeting a non-coin stops it.
	nr, _ = pr.Delta(mkCoin(earlyPhase, 2, false), mkInhib(earlyPhase, 0, false, false))
	if !nr.CoinStopped() {
		t.Fatalf("coin = %v, want stopped", nr)
	}
	// A stopped coin never moves again.
	nr, _ = pr.Delta(mkCoin(earlyPhase, 2, true), mkCoin(earlyPhase, 2, false))
	if nr.CoinLevel() != 2 || !nr.CoinStopped() {
		t.Fatalf("stopped coin moved: %v", nr)
	}
}

func TestCoinCapsAtPhi(t *testing.T) {
	pr := testProto(t)
	nr, _ := pr.Delta(mkCoin(earlyPhase, 3, false), mkCoin(earlyPhase, 3, false))
	if nr.CoinLevel() != 3 {
		t.Fatalf("coin climbed past Φ: %v", nr)
	}
}

// --- Inhibitor preprocessing (Section 7 / Lemma 7.1) ---

func TestInhibitorAdvancesOnCoinLate(t *testing.T) {
	pr := testProto(t)
	nr, _ := pr.Delta(mkInhib(latePhase, 1, false, false), mkCoin(latePhase, 0, true))
	if nr.InhibDrag() != 2 || nr.InhibStopped() {
		t.Fatalf("inhibitor = %v, want advancing drag 2", nr)
	}
}

func TestInhibitorStopsOnNonCoinLate(t *testing.T) {
	pr := testProto(t)
	nr, _ := pr.Delta(mkInhib(latePhase, 1, false, false), mkD(latePhase))
	if nr.InhibDrag() != 1 || !nr.InhibStopped() {
		t.Fatalf("inhibitor = %v, want stopped at drag 1", nr)
	}
}

func TestInhibitorIdleInEarlyHalf(t *testing.T) {
	pr := testProto(t)
	nr, _ := pr.Delta(mkInhib(earlyPhase, 1, false, false), mkCoin(earlyPhase, 0, true))
	if nr.InhibDrag() != 1 || nr.InhibStopped() {
		t.Fatalf("inhibitor moved in early half: %v", nr)
	}
}

func TestInhibitorCapsAtPsi(t *testing.T) {
	pr := testProto(t)
	nr, _ := pr.Delta(mkInhib(latePhase, 3, false, false), mkCoin(latePhase, 0, true))
	if nr.InhibDrag() != 4 || !nr.InhibStopped() {
		t.Fatalf("inhibitor = %v, want stopped at Ψ=4", nr)
	}
}

// --- Rule (8) and the elevation epidemic ---

func TestRule8ActivationByActiveLeader(t *testing.T) {
	pr := testProto(t)
	inh := mkInhib(earlyPhase, 2, true, false)
	lead := mkLeader(earlyPhase, ModeActive, FlipNone, false, 0, 2)
	nr, _ := pr.Delta(inh, lead)
	if !nr.InhibHigh() {
		t.Fatalf("inhibitor = %v, want high", nr)
	}
}

func TestRule8RequiresMatchingDragAndActive(t *testing.T) {
	pr := testProto(t)
	inh := mkInhib(earlyPhase, 2, true, false)
	// Wrong drag.
	nr, _ := pr.Delta(inh, mkLeader(earlyPhase, ModeActive, FlipNone, false, 0, 3))
	if nr.InhibHigh() {
		t.Fatal("activated by mismatched drag")
	}
	// Passive leader.
	nr, _ = pr.Delta(inh, mkLeader(earlyPhase, ModePassive, FlipNone, false, 0, 2))
	if nr.InhibHigh() {
		t.Fatal("activated by passive leader")
	}
	// Unstopped inhibitors cannot be activated.
	nr, _ = pr.Delta(mkInhib(earlyPhase, 2, false, false), mkLeader(earlyPhase, ModeActive, FlipNone, false, 0, 2))
	if nr.InhibHigh() {
		t.Fatal("unstopped inhibitor activated")
	}
}

func TestElevationEpidemic(t *testing.T) {
	pr := testProto(t)
	low := mkInhib(earlyPhase, 2, true, false)
	high := mkInhib(earlyPhase, 2, true, true)
	nr, _ := pr.Delta(low, high)
	if !nr.InhibHigh() {
		t.Fatalf("inhibitor = %v, want high via epidemic", nr)
	}
	// Different drag does not spread.
	nr, _ = pr.Delta(low, mkInhib(earlyPhase, 3, true, true))
	if nr.InhibHigh() {
		t.Fatal("elevation spread across drag levels")
	}
}

// --- Rules (4)/(5): biased coin flips ---

func TestFlipHeadsOnHighCoin(t *testing.T) {
	pr := testProto(t)
	// cnt=8 schedules coin Φ=3; a level-3 coin initiator gives heads.
	lead := mkLeader(earlyPhase, ModeActive, FlipNone, false, 8, 0)
	nr, _ := pr.Delta(lead, mkCoin(earlyPhase, 3, true))
	if nr.FlipVal() != FlipHeads || !nr.HeadsSeen() {
		t.Fatalf("leader = %v, want heads", nr)
	}
}

func TestFlipTailsOnLowCoin(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeActive, FlipNone, false, 8, 0)
	nr, _ := pr.Delta(lead, mkCoin(earlyPhase, 2, true))
	if nr.FlipVal() != FlipTails || nr.HeadsSeen() {
		t.Fatalf("leader = %v, want tails", nr)
	}
}

func TestFlipTailsOnNonCoin(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeActive, FlipNone, false, 8, 0)
	nr, _ := pr.Delta(lead, mkD(earlyPhase))
	if nr.FlipVal() != FlipTails {
		t.Fatalf("leader = %v, want tails", nr)
	}
}

func TestFlipOncePerRound(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeActive, FlipTails, false, 8, 0)
	nr, _ := pr.Delta(lead, mkCoin(earlyPhase, 3, true))
	if nr.FlipVal() != FlipTails {
		t.Fatalf("leader reflipped: %v", nr)
	}
}

func TestNoFlipInWarmupRound(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeActive, FlipNone, false, 9, 0) // cnt == initial
	nr, _ := pr.Delta(lead, mkCoin(earlyPhase, 3, true))
	if nr.FlipVal() != FlipNone {
		t.Fatalf("leader flipped during warm-up: %v", nr)
	}
}

func TestNoFlipInLateHalf(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(latePhase, ModeActive, FlipNone, false, 8, 0)
	nr, _ := pr.Delta(lead, mkCoin(latePhase, 3, true))
	if nr.FlipVal() != FlipNone {
		t.Fatalf("leader flipped in late half: %v", nr)
	}
}

func TestPassiveDoesNotFlip(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModePassive, FlipNone, false, 8, 0)
	nr, _ := pr.Delta(lead, mkCoin(earlyPhase, 3, true))
	if nr.FlipVal() != FlipNone {
		t.Fatalf("passive flipped: %v", nr)
	}
}

func TestFinalEpochFlipsLevelZeroCoin(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeActive, FlipNone, false, 0, 1)
	// Any coin (level ≥ 0) gives heads in the final epoch.
	nr, _ := pr.Delta(lead, mkCoin(earlyPhase, 0, true))
	if nr.FlipVal() != FlipHeads {
		t.Fatalf("leader = %v, want heads from level-0 coin", nr)
	}
	nr, _ = pr.Delta(lead, mkInhib(earlyPhase, 0, true, false))
	if nr.FlipVal() != FlipTails {
		t.Fatalf("leader = %v, want tails from non-coin", nr)
	}
}

// --- Rules (6)/(7): heads broadcast ---

func TestRule6TailsBecomesPassive(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(latePhase, ModeActive, FlipTails, false, 8, 0)
	informed := mkLeader(latePhase, ModeWithdrawn, FlipNone, true, 8, 0)
	nr, _ := pr.Delta(lead, informed)
	if nr.Mode() != ModePassive || !nr.HeadsSeen() {
		t.Fatalf("leader = %v, want passive with heads seen", nr)
	}
}

func TestRule7SpreadsWithoutElimination(t *testing.T) {
	pr := testProto(t)
	// A candidate that has not flipped yet only learns the information.
	lead := mkLeader(latePhase, ModeActive, FlipNone, false, 8, 0)
	informed := mkLeader(latePhase, ModePassive, FlipTails, true, 8, 0)
	nr, _ := pr.Delta(lead, informed)
	if nr.Mode() != ModeActive || !nr.HeadsSeen() {
		t.Fatalf("leader = %v, want active with heads seen", nr)
	}
	// Heads-holders are unaffected.
	lead = mkLeader(latePhase, ModeActive, FlipHeads, true, 8, 0)
	nr, _ = pr.Delta(lead, informed)
	if nr.Mode() != ModeActive {
		t.Fatalf("heads holder eliminated: %v", nr)
	}
}

func TestNoBroadcastInEarlyHalf(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeActive, FlipTails, false, 8, 0)
	informed := mkLeader(earlyPhase, ModePassive, FlipTails, true, 8, 0)
	nr, _ := pr.Delta(lead, informed)
	if nr.HeadsSeen() || nr.Mode() != ModeActive {
		t.Fatalf("broadcast leaked into early half: %v", nr)
	}
}

// --- Rule (3): round reset ---

func TestRule3ResetOnPass(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(35, ModeActive, FlipHeads, true, 8, 0)
	nr, _ := pr.Delta(lead, mkD(0)) // wrap: pass through 0
	if nr.Cnt() != 7 || nr.FlipVal() != FlipNone || nr.HeadsSeen() {
		t.Fatalf("leader = %v, want cnt=7 and reset flip state", nr)
	}
}

func TestRule3FinalEpochKeepsCntZero(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(35, ModePassive, FlipTails, true, 0, 2)
	nr, _ := pr.Delta(lead, mkD(0))
	if nr.Cnt() != 0 || nr.FlipVal() != FlipNone || nr.HeadsSeen() || nr.LeaderDrag() != 2 {
		t.Fatalf("leader = %v, want cnt=0 kept and drag preserved", nr)
	}
}

// --- Rule (10): drag increment ---

func TestRule10Increments(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeActive, FlipHeads, true, 0, 1)
	inh := mkInhib(earlyPhase, 1, true, true)
	nr, _ := pr.Delta(lead, inh)
	if nr.LeaderDrag() != 2 {
		t.Fatalf("leader = %v, want drag 2", nr)
	}
}

func TestRule10Preconditions(t *testing.T) {
	pr := testProto(t)
	inh := mkInhib(earlyPhase, 1, true, true)
	cases := []struct {
		name string
		lead State
		init State
	}{
		{"needs heads", mkLeader(earlyPhase, ModeActive, FlipTails, false, 0, 1), inh},
		{"needs final epoch", mkLeader(earlyPhase, ModeActive, FlipHeads, true, 3, 1), inh},
		{"needs active", mkLeader(earlyPhase, ModePassive, FlipHeads, true, 0, 1), inh},
		{"needs high inhibitor", mkLeader(earlyPhase, ModeActive, FlipHeads, true, 0, 1), mkInhib(earlyPhase, 1, true, false)},
		{"needs matching drag", mkLeader(earlyPhase, ModeActive, FlipHeads, true, 0, 1), mkInhib(earlyPhase, 2, true, true)},
	}
	for _, c := range cases {
		nr, _ := pr.Delta(c.lead, c.init)
		if nr.LeaderDrag() != c.lead.LeaderDrag() {
			t.Errorf("%s: drag changed: %v", c.name, nr)
		}
	}
}

func TestRule10CapsAtPsi(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeActive, FlipHeads, true, 0, 4) // Ψ = 4
	nr, _ := pr.Delta(lead, mkInhib(earlyPhase, 4, true, true))
	if nr.LeaderDrag() != 4 {
		t.Fatalf("drag exceeded Ψ: %v", nr)
	}
}

// --- Rule (9): withdraw on higher drag ---

func TestRule9WithdrawAndAdopt(t *testing.T) {
	pr := testProto(t)
	for _, m := range []LeaderMode{ModeActive, ModePassive, ModeWithdrawn} {
		lead := mkLeader(earlyPhase, m, FlipNone, false, 0, 1)
		senior := mkLeader(earlyPhase, ModeWithdrawn, FlipNone, false, 0, 3)
		nr, ni := pr.Delta(lead, senior)
		if nr.Mode() != ModeWithdrawn || nr.LeaderDrag() != 3 {
			t.Errorf("mode %v: leader = %v, want withdrawn with drag 3", m, nr)
		}
		if ni != senior {
			t.Errorf("mode %v: initiator changed: %v", m, ni)
		}
	}
}

func TestRule9NeedsStrictlyHigherDrag(t *testing.T) {
	pr := testProto(t)
	lead := mkLeader(earlyPhase, ModeWithdrawn, FlipNone, false, 0, 2)
	nr, _ := pr.Delta(lead, mkLeader(earlyPhase, ModeWithdrawn, FlipNone, false, 0, 2))
	if nr.LeaderDrag() != 2 || nr.Mode() != ModeWithdrawn {
		t.Fatalf("equal drag changed state: %v", nr)
	}
}

// --- Rule (11): slow backup ---

func TestRule11JuniorResponderWithdraws(t *testing.T) {
	pr := testProto(t)
	junior := mkLeader(earlyPhase, ModePassive, FlipNone, false, 5, 0)
	senior := mkLeader(earlyPhase, ModeActive, FlipNone, false, 5, 0)
	nr, ni := pr.Delta(junior, senior)
	if nr.Mode() != ModeWithdrawn {
		t.Fatalf("junior responder = %v, want withdrawn", nr)
	}
	if ni != senior {
		t.Fatalf("senior initiator changed: %v", ni)
	}
}

func TestRule11JuniorInitiatorWithdraws(t *testing.T) {
	pr := testProto(t)
	senior := mkLeader(earlyPhase, ModeActive, FlipNone, false, 5, 0)
	junior := mkLeader(earlyPhase, ModePassive, FlipNone, false, 5, 0)
	nr, ni := pr.Delta(senior, junior)
	if nr.Mode() != ModeActive {
		t.Fatalf("senior responder = %v, want unchanged mode", nr)
	}
	if ni.Mode() != ModeWithdrawn {
		t.Fatalf("junior initiator = %v, want withdrawn", ni)
	}
}

func TestRule11TieEliminatesInitiator(t *testing.T) {
	pr := testProto(t)
	a := mkLeader(earlyPhase, ModeActive, FlipNone, false, 9, 0)
	b := mkLeader(earlyPhase, ModeActive, FlipNone, false, 9, 0)
	nr, ni := pr.Delta(a, b)
	if !nr.Alive() {
		t.Fatalf("responder must survive a tie: %v", nr)
	}
	if ni.Alive() {
		t.Fatalf("initiator must withdraw on a tie: %v", ni)
	}
}

func TestRule11IgnoresWithdrawn(t *testing.T) {
	pr := testProto(t)
	alive := mkLeader(earlyPhase, ModeActive, FlipNone, false, 5, 0)
	w := mkLeader(earlyPhase, ModeWithdrawn, FlipHeads, false, 0, 0)
	nr, ni := pr.Delta(alive, w)
	if !nr.Alive() || ni.Mode() != ModeWithdrawn {
		t.Fatalf("W participated in rule 11: %v, %v", nr, ni)
	}
}

// --- Ablations ---

func TestNoDragDisablesInhibitors(t *testing.T) {
	pr := MustNew(Params{N: 1024, Gamma: 36, Phi: 3, Psi: 4, NoDrag: true})
	nr, _ := pr.Delta(mkInhib(latePhase, 0, false, false), mkCoin(latePhase, 0, true))
	if nr.InhibDrag() != 0 || nr.InhibStopped() {
		t.Fatalf("NoDrag inhibitor moved: %v", nr)
	}
	lead := mkLeader(earlyPhase, ModeActive, FlipHeads, true, 0, 0)
	nr, _ = pr.Delta(lead, mkInhib(earlyPhase, 0, true, true))
	if nr.LeaderDrag() != 0 {
		t.Fatalf("NoDrag leader drag moved: %v", nr)
	}
}

func TestNoFastElimSkipsScheduledFlips(t *testing.T) {
	pr := MustNew(Params{N: 1024, Gamma: 36, Phi: 3, Psi: 4, NoFastElim: true})
	// cnt = 1 (> 0): no flip even on a coin.
	lead := mkLeader(earlyPhase, ModeActive, FlipNone, false, 1, 0)
	nr, _ := pr.Delta(lead, mkCoin(earlyPhase, 3, true))
	if nr.FlipVal() != FlipNone {
		t.Fatalf("NoFastElim flipped before final epoch: %v", nr)
	}
	// Final epoch flips normally.
	lead = mkLeader(earlyPhase, ModeActive, FlipNone, false, 0, 0)
	nr, _ = pr.Delta(lead, mkCoin(earlyPhase, 0, true))
	if nr.FlipVal() != FlipHeads {
		t.Fatalf("NoFastElim final epoch broken: %v", nr)
	}
}

// --- Census classes and stability ---

func TestClasses(t *testing.T) {
	pr := testProto(t)
	cases := []struct {
		s    State
		want uint8
	}{
		{mkZero(0), ClassZero},
		{mkX(0), ClassX},
		{mkCoin(0, 1, false), ClassC},
		{mkInhib(0, 0, false, false), ClassI},
		{mkD(0), ClassD},
		{mkLeader(0, ModeActive, FlipNone, false, 9, 0), ClassActive},
		{mkLeader(0, ModePassive, FlipNone, false, 9, 0), ClassPassive},
		{mkLeader(0, ModeWithdrawn, FlipNone, false, 9, 0), ClassWithdrawn},
	}
	for _, c := range cases {
		if got := pr.Class(c.s); got != c.want {
			t.Errorf("Class(%v) = %d, want %d", c.s, got, c.want)
		}
	}
	if pr.NumClasses() != NumClasses {
		t.Fatal("NumClasses mismatch")
	}
}

func TestStablePredicate(t *testing.T) {
	pr := testProto(t)
	counts := make([]int64, NumClasses)
	counts[ClassActive] = 1
	if !pr.Stable(counts) {
		t.Fatal("one active candidate and no zeros must be stable")
	}
	counts[ClassZero] = 1
	if !pr.Stable(counts) {
		t.Fatal("a single leftover 0 cannot create candidates; still stable")
	}
	counts[ClassZero] = 2
	if pr.Stable(counts) {
		t.Fatal("two zeros may still pair into a new candidate")
	}
	counts[ClassZero] = 0
	counts[ClassPassive] = 1
	if pr.Stable(counts) {
		t.Fatal("two alive candidates are not stable")
	}
}

func TestLeaderOutput(t *testing.T) {
	pr := testProto(t)
	if !pr.Leader(mkLeader(0, ModeActive, FlipNone, false, 9, 0)) ||
		!pr.Leader(mkLeader(0, ModePassive, FlipNone, false, 9, 0)) {
		t.Fatal("A and P map to leader")
	}
	if pr.Leader(mkLeader(0, ModeWithdrawn, FlipNone, false, 9, 0)) ||
		pr.Leader(mkCoin(0, 3, true)) || pr.Leader(mkZero(0)) {
		t.Fatal("everything else maps to follower")
	}
}

func TestNameAndMetadata(t *testing.T) {
	pr := testProto(t)
	if pr.Name() == "" || pr.N() != 1024 {
		t.Fatal("metadata broken")
	}
	if states, ends, err := sim.InitRuns(pr.Words()); err != nil ||
		!slices.Equal(states, []uint32{0}) || !slices.Equal(ends, []int64{1024}) {
		t.Fatalf("agents must all start in the all-zero state: runs %v %v, %v", states, ends, err)
	}
	abl := MustNew(Params{N: 16, Gamma: 36, Phi: 1, Psi: 4, NoFastElim: true, NoDrag: true})
	name := abl.Name()
	if name == pr.Name() {
		t.Fatal("ablation names must differ")
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(Params{N: 1}); err == nil {
		t.Fatal("New must reject invalid params")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on invalid params")
		}
	}()
	MustNew(Params{N: 1})
}

// Enumerable contract for the counts backend.
var _ sim.Enumerable = Words{}

// TestStatesEnumerationCoversRun checks that every state reached in a full
// GSU19 run is contained in the States() enumeration, and that the whole
// enumeration maps to valid census classes.
func TestStatesEnumerationCoversRun(t *testing.T) {
	pr := MustNew(DefaultParams(1500))
	enumerated := make(map[State]struct{})
	for _, s := range pr.States() {
		if _, dup := enumerated[s]; dup {
			t.Fatalf("duplicate state %#x in enumeration", uint32(s))
		}
		enumerated[s] = struct{}{}
		if c := pr.Class(s); int(c) >= pr.NumClasses() {
			t.Fatalf("state %#x has class %d out of range", uint32(s), c)
		}
	}
	initial, _, err := sim.InitRuns(pr.Words())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range initial {
		if _, ok := enumerated[State(s)]; !ok {
			t.Fatal("initial state missing from enumeration")
		}
	}
	r := sim.NewRunner(pr.Words(), rng.New(8))
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, nR, nI uint32) {
		newR, newI := State(nR), State(nI)
		if _, ok := enumerated[newR]; !ok {
			t.Fatalf("state %v reached but not enumerated", newR)
		}
		if _, ok := enumerated[newI]; !ok {
			t.Fatalf("state %v reached but not enumerated", newI)
		}
	})
	if res := r.Run(); !res.Converged {
		t.Fatalf("%+v", res)
	}
}

// TestCountsBackendElects runs the paper's protocol end to end on the
// counts backend.
func TestCountsBackendElects(t *testing.T) {
	pr := MustNew(DefaultParams(3000))
	eng, err := sim.NewEngine(pr.Words(), rng.New(4), sim.BackendCounts)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("counts backend: %+v", res)
	}
}
