package core

import (
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

// legalRoleTransitions encodes which role changes any single interaction may
// cause: roles are assigned once and never change, except the initialisation
// transitions of rules (1) and (2).
var legalRoleTransitions = map[Role]map[Role]bool{
	RoleZero: {RoleZero: true, RoleX: true, RoleL: true, RoleD: true},
	RoleX:    {RoleX: true, RoleC: true, RoleI: true, RoleD: true},
	RoleC:    {RoleC: true},
	RoleI:    {RoleI: true},
	RoleL:    {RoleL: true},
	RoleD:    {RoleD: true},
}

// TestRunInvariants drives full executions at small n and asserts the
// paper's structural invariants on every single transition.
func TestRunInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		pr := MustNew(Params{N: 256, Gamma: 36, Phi: 2, Psi: 4})
		r := sim.NewRunner(pr.Words(), rng.New(seed))
		sawLeader := false
		check := func(step uint64, old, new State) {
			or, nr := old.Role(), new.Role()
			if !legalRoleTransitions[or][nr] {
				t.Fatalf("step %d: illegal role transition %v → %v", step, old, new)
			}
			switch nr {
			case RoleC:
				if or == RoleC && new.CoinLevel() < old.CoinLevel() {
					t.Fatalf("step %d: coin level decreased: %v → %v", step, old, new)
				}
				if or == RoleC && old.CoinStopped() && !new.CoinStopped() {
					t.Fatalf("step %d: coin restarted: %v → %v", step, old, new)
				}
				if or == RoleC && old.CoinStopped() && new.CoinLevel() != old.CoinLevel() {
					t.Fatalf("step %d: stopped coin climbed: %v → %v", step, old, new)
				}
			case RoleI:
				if or == RoleI {
					if new.InhibDrag() < old.InhibDrag() {
						t.Fatalf("step %d: inhibitor drag decreased: %v → %v", step, old, new)
					}
					if old.InhibStopped() && !new.InhibStopped() {
						t.Fatalf("step %d: inhibitor restarted: %v → %v", step, old, new)
					}
					if old.InhibHigh() && !new.InhibHigh() {
						t.Fatalf("step %d: elevation lost: %v → %v", step, old, new)
					}
				}
			case RoleL:
				if or == RoleL {
					if new.Cnt() > old.Cnt() {
						t.Fatalf("step %d: leader cnt increased: %v → %v", step, old, new)
					}
					if new.LeaderDrag() < old.LeaderDrag() {
						t.Fatalf("step %d: leader drag decreased: %v → %v", step, old, new)
					}
					if old.Mode() == ModeWithdrawn && new.Mode() != ModeWithdrawn {
						t.Fatalf("step %d: withdrawn candidate revived: %v → %v", step, old, new)
					}
					if old.Mode() == ModePassive && new.Mode() == ModeActive {
						t.Fatalf("step %d: passive promoted to active: %v → %v", step, old, new)
					}
				}
			}
		}
		r.AddHook(func(step uint64, ri, ii int, oR, oI, nR, nI uint32) {
			oldR, oldI, newR, newI := State(oR), State(oI), State(nR), State(nI)
			check(step, oldR, newR)
			check(step, oldI, newI)
			counts := r.Counts()
			alive := counts[ClassActive] + counts[ClassPassive]
			if alive > 0 {
				sawLeader = true
			}
			if sawLeader && alive == 0 {
				t.Fatalf("step %d: all alive candidates eliminated (Lemma 8.1 violated)", step)
			}
		})
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

// TestMaxAliveDragInvariant verifies the induction behind Lemma 8.1: the
// maximum drag over all leader candidates is always attained by an alive
// candidate, so rules (9)/(11) can never eliminate the last alive candidate.
func TestMaxAliveDragInvariant(t *testing.T) {
	pr := MustNew(Params{N: 512, Gamma: 36, Phi: 2, Psi: 4})
	r := sim.NewRunner(pr.Words(), rng.New(11))
	violations := 0
	r.AddObserver(func(step uint64, pop []uint32) {
		maxAll := pr.MaxLeaderDragOf(PopCensus(pop))
		maxAlive := pr.MaxAliveDragOf(PopCensus(pop))
		if maxAll >= 0 && maxAlive != maxAll {
			violations++
			t.Errorf("step %d: max leader drag %d not attained by alive candidate (max alive %d)",
				step, maxAll, maxAlive)
		}
	}, 256)
	res := r.Run()
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	if violations > 0 {
		t.Fatalf("%d invariant violations", violations)
	}
}

// TestStabilityIsAbsorbing runs past convergence and checks the output
// vector never changes again: same unique leader, forever.
func TestStabilityIsAbsorbing(t *testing.T) {
	for _, seed := range []uint64{5, 6} {
		pr := MustNew(Params{N: 128, Gamma: 36, Phi: 2, Psi: 4})
		r := sim.NewRunner(pr.Words(), rng.New(seed))
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		leaderID := res.LeaderID
		// Keep running well past convergence.
		for k := 0; k < 20; k++ {
			r.RunSteps(10000)
			if got := r.Leaders(); got != 1 {
				t.Fatalf("seed %d: leader count drifted to %d after convergence", seed, got)
			}
			if !State(r.Population()[leaderID]).Alive() {
				t.Fatalf("seed %d: the elected leader lost leadership", seed)
			}
		}
	}
}

// TestRoleConservation checks that the role partition settles: once the
// first round completes, essentially every agent holds a final role and the
// per-role counts stay fixed (roles are never reassigned).
func TestRoleConservation(t *testing.T) {
	pr := MustNew(Params{N: 1024, Gamma: 36, Phi: 2, Psi: 4})
	r := sim.NewRunner(pr.Words(), rng.New(21))
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	roles := pr.RoleCensusOf(PopCensus(r.Population()))
	total := 0
	for _, c := range roles {
		total += c
	}
	if total != 1024 {
		t.Fatalf("role census sums to %d", total)
	}
	if roles[RoleZero] > 1 {
		t.Fatalf("%d zeros left at stability", roles[RoleZero])
	}
	// The split rules give ≈ n/2 leaders, ≈ n/4 coins, ≈ n/4 inhibitors.
	if roles[RoleL] < 300 || roles[RoleC] < 100 || roles[RoleI] < 100 {
		t.Fatalf("implausible role split: %v", roles)
	}
	// Continuing must not change any role.
	before := r.Population()
	snapshot := make([]Role, len(before))
	for i, s := range before {
		snapshot[i] = State(s).Role()
	}
	r.RunSteps(50000)
	for i, w := range r.Population() {
		s := State(w)
		// Only 0/X may still transition (to D or via rule 1).
		if snapshot[i] == RoleC || snapshot[i] == RoleI || snapshot[i] == RoleL || snapshot[i] == RoleD {
			if s.Role() != snapshot[i] {
				t.Fatalf("agent %d changed role %v → %v after stability", i, snapshot[i], s.Role())
			}
		}
	}
}
