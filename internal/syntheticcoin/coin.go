// Package syntheticcoin implements the parity synthetic coin of Alistarh,
// Aspnes, Eisenstat, Gelashvili & Rivest (SODA 2017), used by the GS18 and
// lottery baselines for near-fair coin flips: every agent keeps one bit that
// it toggles at each of its interactions; reading the bit of a uniformly
// random interaction partner yields a coin whose bias vanishes at rate
// 2^{-Θ(t)} after t parallel time.
//
// (The paper's own protocol does not need fair coins — its level-0 coin has
// bias ≈ 1/4 by construction — but its comparison targets do.)
package syntheticcoin

// Toggle flips a parity bit; call it for both participants of every
// interaction.
func Toggle(bit uint8) uint8 { return bit ^ 1 }

// Read interprets an interaction partner's parity bit as a coin flip.
func Read(partnerBit uint8) bool { return partnerBit == 1 }

// Protocol is a standalone measurement protocol: all agents toggle parity
// bits forever. Used to measure how quickly the population's parity split
// approaches 1/2. It never stabilizes.
//
// State packing (uint32): bit 0 = parity.
type Protocol struct {
	Size int
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "syntheticcoin" }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.Size }

// Init implements sim.Protocol. All agents start at parity 0, the worst
// case for the coin's initial bias.
func (p *Protocol) Init(yield func(uint32, int64)) { yield(0, int64(p.Size)) }

// Delta implements sim.Protocol: both agents toggle.
func (p *Protocol) Delta(r, i uint32) (uint32, uint32) {
	return uint32(Toggle(uint8(r & 1))), uint32(Toggle(uint8(i & 1)))
}

// NumClasses implements sim.Protocol.
func (p *Protocol) NumClasses() int { return 2 }

// Class implements sim.Protocol: the parity bit.
func (p *Protocol) Class(s uint32) uint8 { return uint8(s & 1) }

// Leader implements sim.Protocol.
func (p *Protocol) Leader(uint32) bool { return false }

// Stable implements sim.Protocol; the coin protocol never stabilizes.
func (p *Protocol) Stable([]int64) bool { return false }

// Bias returns |P(heads) − 1/2| for a population with the given parity-one
// count: reading a uniform partner's bit gives heads with probability
// ones/n.
func Bias(ones int64, n int) float64 {
	p := float64(ones) / float64(n)
	if p > 0.5 {
		return p - 0.5
	}
	return 0.5 - p
}
