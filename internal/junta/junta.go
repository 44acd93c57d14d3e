// Package junta implements the coin-level preprocessing of Section 5 of the
// paper (the "forming a junta" protocol inherited from GS18): coin agents
// climb levels 0..Φ, advancing only when the initiator is a coin at the same
// or a higher level, and stopping forever otherwise. Level populations decay
// doubly exponentially (C_{ℓ+1} ≈ C_ℓ²/2n up to constants, Lemmas 5.1/5.2),
// so the top level Φ = ⌊log log n⌋ − 3 holds between n^0.45 and n^0.77
// agents (Lemma 5.3) — the junta that drives the phase clock. A coin at
// level ℓ also realises the ℓ-th asymmetric synthetic coin: interacting with
// a coin of level ≥ ℓ is "heads", with probability q_ℓ = C_ℓ/n.
//
// The level-advance rule is shared by the core protocol and the GS18
// baseline; this package holds it as a pure function, together with the
// paper's predicted bounds for validation, and a standalone coins-only
// protocol for studying the level distribution in isolation.
package junta

import (
	"fmt"
	"math"
)

// Mode is a coin's willingness to keep climbing levels.
type Mode uint8

// Coin modes.
const (
	Advancing Mode = iota
	Stopped
)

func (m Mode) String() string {
	if m == Advancing {
		return "adv"
	}
	return "stop"
}

// Next applies the coin-preprocessing transition for a responder coin at
// (level, mode) whose initiator is a coin at otherLevel if otherIsCoin, or
// any non-coin agent otherwise. phi is the level cap Φ.
//
// The rules (Section 5):
//   - an advancing coin meeting a non-coin stops;
//   - an advancing coin meeting a lower-level coin stops;
//   - an advancing coin meeting a coin at the same or higher level climbs
//     one level (until Φ, where it stays and joins the junta).
func Next(level uint8, mode Mode, otherIsCoin bool, otherLevel uint8, phi uint8) (uint8, Mode) {
	if mode == Stopped {
		return level, mode
	}
	if !otherIsCoin || otherLevel < level {
		return level, Stopped
	}
	if level < phi {
		return level + 1, Advancing
	}
	return level, mode
}

// DefaultPhi returns the paper's level cap Φ = ⌊log₂ log₂ n⌋ − 3, floored
// at 1 so that finite populations always have at least one asymmetric coin
// besides level 0.
func DefaultPhi(n int) int {
	if n < 4 {
		return 1
	}
	log2 := math.Log2(float64(n))
	phi := int(math.Floor(math.Log2(log2))) - 3
	if phi < 1 {
		phi = 1
	}
	return phi
}

// PredictLevels returns the idealized level populations C_0..C_Φ for a coin
// subpopulation of size c0 within a population of size n, iterating the
// recurrence from Lemmas 5.1/5.2 with the midpoint constant:
// C_{ℓ+1} = C_ℓ² / (2n) — each arriving coin advances with probability
// ≈ (number already there)/n, giving ΣC_ℓ·i/n ≈ C_ℓ²/2n arrivals one level
// up.
func PredictLevels(n int, c0 float64, phi int) []float64 {
	out := make([]float64, phi+1)
	out[0] = c0
	for l := 1; l <= phi; l++ {
		out[l] = out[l-1] * out[l-1] / (2 * float64(n))
	}
	return out
}

// LevelBounds returns the paper's very-high-probability envelope for C_ℓ
// given C_0 = q₀·n (Lemmas 5.1 and 5.2, iterated):
//
//	(9/20)^(2^ℓ+...)·… ≤ C_ℓ ≤ (11/10)^(2^ℓ−1) · n / 2^(2^(ℓ+2)) …
//
// Rather than reproduce the closed forms, the envelope is computed by
// iterating the per-step bounds: lower_{ℓ+1} = (9/20)·lower_ℓ²/n and
// upper_{ℓ+1} = (11/10)·upper_ℓ²/n.
func LevelBounds(n int, c0 float64, phi int) (lower, upper []float64) {
	lower = make([]float64, phi+1)
	upper = make([]float64, phi+1)
	lower[0], upper[0] = c0, c0
	for l := 1; l <= phi; l++ {
		ql := lower[l-1] / float64(n)
		qu := upper[l-1] / float64(n)
		lower[l] = 9.0 / 20.0 * ql * ql * float64(n)
		upper[l] = 11.0 / 10.0 * qu * qu * float64(n)
	}
	return lower, upper
}

// ChoosePhi picks the level cap Φ for protocols whose whole population
// climbs (GS18-style preprocessing, where every agent reaches level 1 and
// about half reach level 2, so C_2 ≈ n/2): the largest Φ ≤ maxPhi whose
// predicted junta size C_Φ stays at or above the lower edge n^0.45 of
// Lemma 5.3's window, iterating the PredictLevels square-decay recurrence
// from C_2, floored at 2 (the first level the prediction is seeded at).
// maxPhi is the packing bound of the caller's level field — the cap is
// derived from the level math up to whatever the state word can hold,
// never from a hardcoded loop count. A maxPhi below 2 is honored (the
// result never exceeds it), floored at 1.
func ChoosePhi(n int, maxPhi int) int {
	f := float64(n)
	low := math.Pow(f, 0.45)
	phi := 2
	if maxPhi < 2 {
		if maxPhi < 1 {
			return 1
		}
		return maxPhi
	}
	// PredictLevels indexes from its seed population: pred[k] = C_{k+2}
	// for the whole-population climb's C_2 = n/2 seed.
	pred := PredictLevels(n, f/2, maxPhi-2)
	for l := 3; l <= maxPhi; l++ {
		if pred[l-2] < low {
			break
		}
		phi = l
	}
	return phi
}

// JuntaSizeBounds returns Lemma 5.3's asymptotic envelope [n^0.45, n^0.77]
// for the junta size when Φ follows the paper's formula.
func JuntaSizeBounds(n int) (lo, hi float64) {
	f := float64(n)
	return math.Pow(f, 0.45), math.Pow(f, 0.77)
}

// Standalone is a coins-only protocol for studying the level distribution in
// isolation: every agent is a coin running the preprocessing rules. It
// stabilizes when no advancing coins remain.
//
// State packing (uint32): bits 0..3 level, bit 4 stopped flag.
type Standalone struct {
	Size int
	Phi  uint8
}

// NewStandalone builds the coins-only protocol.
func NewStandalone(n, phi int) (*Standalone, error) {
	if n < 2 {
		return nil, fmt.Errorf("junta: population %d < 2", n)
	}
	if phi < 1 || phi > 15 {
		return nil, fmt.Errorf("junta: phi %d out of [1, 15]", phi)
	}
	return &Standalone{Size: n, Phi: uint8(phi)}, nil
}

const stopBit = 1 << 4

// Level extracts the level from a packed state.
func (j *Standalone) Level(s uint32) uint8 { return uint8(s & 0xf) }

// ModeOf extracts the mode from a packed state.
func (j *Standalone) ModeOf(s uint32) Mode {
	if s&stopBit != 0 {
		return Stopped
	}
	return Advancing
}

func pack(level uint8, mode Mode) uint32 {
	s := uint32(level)
	if mode == Stopped {
		s |= stopBit
	}
	return s
}

// Name implements sim.Protocol.
func (j *Standalone) Name() string { return fmt.Sprintf("junta(Φ=%d)", j.Phi) }

// N implements sim.Protocol.
func (j *Standalone) N() int { return j.Size }

// Init implements sim.Protocol: every agent starts advancing at level 0.
func (j *Standalone) Init(yield func(uint32, int64)) { yield(pack(0, Advancing), int64(j.Size)) }

// Delta implements sim.Protocol.
func (j *Standalone) Delta(r, i uint32) (uint32, uint32) {
	level, mode := Next(j.Level(r), j.ModeOf(r), true, j.Level(i), j.Phi)
	return pack(level, mode), i
}

// NumClasses implements sim.Protocol: class 0 = advancing, 1 = stopped.
func (j *Standalone) NumClasses() int { return 2 }

// Class implements sim.Protocol.
func (j *Standalone) Class(s uint32) uint8 {
	if j.ModeOf(s) == Stopped {
		return 1
	}
	return 0
}

// Leader implements sim.Protocol; the coins protocol elects no leader.
func (j *Standalone) Leader(uint32) bool { return false }

// Stable implements sim.Protocol: stable when no coin can move again. A coin
// at level Φ in advancing mode only climbs further interactions with
// level-Φ coins, which never changes its state, so advancing coins at Φ are
// also terminal; but lower-level advancing coins may still move. The census
// tracks only adv/stop, so stability here is "all stopped or at Φ" — which
// the 2-class census cannot express; we conservatively never stabilize and
// let callers bound the run length.
func (j *Standalone) Stable([]int64) bool { return false }

// LevelCensus counts coins per level in a population of packed states.
func (j *Standalone) LevelCensus(pop []uint32) []int {
	counts := make([]int, j.Phi+1)
	for _, s := range pop {
		counts[j.Level(s)]++
	}
	return counts
}

// CumulativeCensus returns C_ℓ = number of coins at level ℓ or higher.
func (j *Standalone) CumulativeCensus(pop []uint32) []int {
	counts := j.LevelCensus(pop)
	for l := len(counts) - 2; l >= 0; l-- {
		counts[l] += counts[l+1]
	}
	return counts
}
