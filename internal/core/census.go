package core

// Census instrumentation used by tests, experiments and examples.
//
// Every quantity is defined over a state census — a (state, count)
// enumeration — because that is the observation currency shared by both
// simulation backends (sim.CensusView.VisitStates satisfies StateCensus
// directly, for the dense and the counts engine alike; PopCensus adapts a
// dense population slice). These functions scan the whole census; call them
// at sampling intervals, not per interaction.

// StateCensus enumerates a configuration as (packed state word, count)
// pairs: it calls its argument once per entry. Entries may repeat a state
// (consumers accumulate), and the order is unspecified — all quantities
// computed here are order-insensitive aggregates. sim.CensusView.VisitStates and
// PopCensus both satisfy this type.
type StateCensus func(yield func(w uint32, count int64))

// PopCensus adapts a population slice to a StateCensus (each agent yields
// its state with count 1).
func PopCensus(pop []uint32) StateCensus {
	return func(yield func(uint32, int64)) {
		for _, s := range pop {
			yield(s, 1)
		}
	}
}

// RoleCensusOf counts agents per role.
func (pr *Protocol) RoleCensusOf(census StateCensus) map[Role]int {
	out := make(map[Role]int, int(numRoles))
	census(func(w uint32, c int64) {
		out[State(w).Role()] += int(c)
	})
	return out
}

// CoinLevelCensusOf counts coins per level (exact level, not cumulative).
func (pr *Protocol) CoinLevelCensusOf(census StateCensus) []int {
	counts := make([]int, pr.params.Phi+1)
	census(func(w uint32, c int64) {
		s := State(w)
		if s.Role() == RoleC {
			counts[s.CoinLevel()] += int(c)
		}
	})
	return counts
}

// CumulativeCoinCensusOf returns C_ℓ, the number of coins at level ℓ or
// higher, for ℓ = 0..Φ — the quantities bounded by Lemmas 5.1–5.3 and
// plotted in Figure 1.
func (pr *Protocol) CumulativeCoinCensusOf(census StateCensus) []int {
	counts := pr.CoinLevelCensusOf(census)
	for l := len(counts) - 2; l >= 0; l-- {
		counts[l] += counts[l+1]
	}
	return counts
}

// JuntaSizeOf returns C_Φ, the number of clock leaders.
func (pr *Protocol) JuntaSizeOf(census StateCensus) int {
	c := 0
	census(func(w uint32, k int64) {
		if pr.isJunta(State(w)) {
			c += int(k)
		}
	})
	return c
}

// InhibDragCensusOf counts inhibitors per drag value (exact), the
// quantities D_ℓ of Lemma 7.1.
func (pr *Protocol) InhibDragCensusOf(census StateCensus) []int {
	counts := make([]int, pr.params.Psi+1)
	census(func(w uint32, c int64) {
		s := State(w)
		if s.Role() == RoleI {
			counts[s.InhibDrag()] += int(c)
		}
	})
	return counts
}

// LeaderModeCensusOf counts leader candidates by mode.
func (pr *Protocol) LeaderModeCensusOf(census StateCensus) (active, passive, withdrawn int) {
	census(func(w uint32, c int64) {
		s := State(w)
		if s.Role() != RoleL {
			return
		}
		switch s.Mode() {
		case ModeActive:
			active += int(c)
		case ModePassive:
			passive += int(c)
		default:
			withdrawn += int(c)
		}
	})
	return active, passive, withdrawn
}

// MinLeaderCntOf returns the smallest round counter held by any active
// candidate, or -1 if none exist. Because rounds are synchronized whp,
// this identifies the current stage of the elimination schedule.
func (pr *Protocol) MinLeaderCntOf(census StateCensus) int {
	min := -1
	census(func(w uint32, c int64) {
		s := State(w)
		if c > 0 && s.Role() == RoleL && s.Mode() == ModeActive {
			if v := int(s.Cnt()); min == -1 || v < min {
				min = v
			}
		}
	})
	return min
}

// MaxLeaderDragOf returns the largest drag value held by any leader
// candidate (any mode), or -1 if no leader exists.
func (pr *Protocol) MaxLeaderDragOf(census StateCensus) int {
	max := -1
	census(func(w uint32, c int64) {
		s := State(w)
		if c > 0 && s.Role() == RoleL {
			if d := int(s.LeaderDrag()); d > max {
				max = d
			}
		}
	})
	return max
}

// MaxAliveDragOf returns the largest drag value held by any alive
// candidate, or -1 if none exist. Lemma 8.1's induction is the invariant
// MaxAliveDragOf == MaxLeaderDragOf whenever a leader exists.
func (pr *Protocol) MaxAliveDragOf(census StateCensus) int {
	max := -1
	census(func(w uint32, c int64) {
		s := State(w)
		if c > 0 && s.Alive() {
			if d := int(s.LeaderDrag()); d > max {
				max = d
			}
		}
	})
	return max
}

// UninitiatedCountOf returns the number of agents still in role 0 or X —
// the quantity bounded by Lemma 4.1.
func (pr *Protocol) UninitiatedCountOf(census StateCensus) int {
	c := 0
	census(func(w uint32, k int64) {
		if r := State(w).Role(); r == RoleZero || r == RoleX {
			c += int(k)
		}
	})
	return c
}
