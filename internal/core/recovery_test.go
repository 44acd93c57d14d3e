package core

import (
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

// Failure-injection tests: start the protocol from adversarial mid-execution
// configurations (desynchronized clocks, dead juntas, mass passivation) and
// verify it still stabilizes with exactly one leader. These are the
// situations the paper's Las Vegas machinery — passives instead of
// followers, the drag counter, and the slow backup rule (11) — exists for.
//
// Only configurations satisfying the reachability invariant of Lemma 8.1
// (the maximum drag among leader candidates is held by an alive candidate)
// are tested; states violating it are unreachable by construction.

func runFrom(t *testing.T, pr *Protocol, initial func(i int) State, seeds ...uint64) {
	t.Helper()
	o := sim.NewOverride(pr.Words(), func(i int) uint32 { return uint32(initial(i)) })
	for _, seed := range seeds {
		r := sim.NewRunner(o, rng.New(seed))
		res := r.Run()
		if !res.Converged {
			t.Fatalf("seed %d: no convergence: %+v", seed, res)
		}
		if res.Leaders != 1 {
			t.Fatalf("seed %d: %d leaders", seed, res.Leaders)
		}
	}
}

// TestRecoveryAllPassive: every candidate was (wrongly) passivated and
// there are no coins or inhibitors at all — no clock, no drag ticks. Only
// the slow backup can resolve this, and it must.
func TestRecoveryAllPassive(t *testing.T) {
	pr := MustNew(Params{N: 48, Gamma: 36, Phi: 1, Psi: 4})
	runFrom(t, pr, func(i int) State {
		return State(0).WithPhase(uint8(i%36)).withLeader(ModePassive, FlipTails, false, 0, 0)
	}, 1, 2, 3)
}

// TestRecoveryDesynchronizedClocks: a normal role split but with phases
// scattered across the whole dial, breaking every equivalence class of
// Theorem 3.2.
func TestRecoveryDesynchronizedClocks(t *testing.T) {
	pr := MustNew(Params{N: 64, Gamma: 36, Phi: 1, Psi: 4})
	runFrom(t, pr, func(i int) State {
		phase := uint8((i * 7) % 36)
		switch i % 4 {
		case 0:
			return State(0).WithPhase(phase).withCoin(uint8(i%2), i%3 == 0)
		case 1:
			return State(0).WithPhase(phase).withInhib(uint8(i%3), true, false)
		default:
			return State(0).WithPhase(phase).withLeader(ModeActive, FlipNone, false, 3, 0)
		}
	}, 4, 5, 6)
}

// TestRecoveryDeadJunta: all coins stopped below Φ, so the clock can never
// tick and no round structure ever forms. Convergence must come from rule
// (11) alone.
func TestRecoveryDeadJunta(t *testing.T) {
	pr := MustNew(Params{N: 48, Gamma: 36, Phi: 2, Psi: 4})
	runFrom(t, pr, func(i int) State {
		if i%2 == 0 {
			return State(0).withCoin(0, true) // stopped at level 0 forever
		}
		return State(0).withLeader(ModeActive, FlipNone, false, 7, 0)
	}, 7, 8)
}

// TestRecoveryMixedDrags: candidates frozen at assorted drag values with
// the maximum held by an active candidate (the Lemma 8.1 invariant);
// rule (9) must collapse everyone below it without ever reaching zero
// candidates.
func TestRecoveryMixedDrags(t *testing.T) {
	pr := MustNew(Params{N: 40, Gamma: 36, Phi: 1, Psi: 4})
	runFrom(t, pr, func(i int) State {
		switch {
		case i == 0:
			return State(0).withLeader(ModeActive, FlipNone, false, 0, 3) // max drag, alive
		case i < 10:
			return State(0).withLeader(ModePassive, FlipTails, false, 0, uint8(i%3))
		case i < 20:
			return State(0).withLeader(ModeWithdrawn, FlipNone, false, 0, uint8(i%4))
		case i < 30:
			return State(0).withInhib(uint8(i%4), true, i%2 == 0)
		default:
			return State(0).withCoin(uint8(i%2), true)
		}
	}, 9, 10, 11)
}

// TestRecoveryAlreadyStable: one active candidate among withdrawn ones is
// already a stable configuration — the runner must return immediately.
func TestRecoveryAlreadyStable(t *testing.T) {
	pr := MustNew(Params{N: 32, Gamma: 36, Phi: 1, Psi: 4})
	o := sim.NewOverride(pr.Words(), func(i int) uint32 {
		if i == 5 {
			return uint32(State(0).withLeader(ModeActive, FlipNone, false, 0, 1))
		}
		return uint32(State(0).withLeader(ModeWithdrawn, FlipNone, false, 0, 1))
	})
	r := sim.NewRunner(o, rng.New(13))
	res := r.Run()
	if !res.Converged || res.Interactions != 0 || res.LeaderID != 5 {
		t.Fatalf("%+v", res)
	}
}

// TestRecoveryStaleHeadsInfo: every candidate simultaneously believes heads
// were drawn (stale epidemic) while holding tails. Rule (6) may passivate
// many of them, but never all — the invariant machinery keeps at least one
// alive and the backup elects it.
func TestRecoveryStaleHeadsInfo(t *testing.T) {
	pr := MustNew(Params{N: 48, Gamma: 36, Phi: 1, Psi: 4})
	runFrom(t, pr, func(i int) State {
		phase := uint8(20 + i%10) // late half: elimination rules armed
		return State(0).WithPhase(phase).withLeader(ModeActive, FlipTails, true, 2, 0)
	}, 14, 15)
}

// TestRecoveryLoneZeroStraggler: a single uninitiated agent left among an
// otherwise settled population can never create a candidate; stability must
// be reached regardless of what it does.
func TestRecoveryLoneZeroStraggler(t *testing.T) {
	pr := MustNew(Params{N: 32, Gamma: 36, Phi: 1, Psi: 4})
	runFrom(t, pr, func(i int) State {
		switch {
		case i == 0:
			return State(0) // role Zero, forever alone
		case i < 4:
			return State(0).withLeader(ModeActive, FlipNone, false, 2, 0)
		case i%2 == 0:
			return State(0).withCoin(1, true)
		default:
			return State(0).withInhib(1, true, false)
		}
	}, 16, 17)
}
