// Package epidemic implements the one-way epidemic primitive of Angluin,
// Aspnes & Eisenstat (Distributed Computing 2008) used throughout the paper
// for broadcasting information ("any heads were drawn this round", inhibitor
// elevation, drag values): a bit spreads from the initiator to the responder
// in every interaction. An epidemic started at one agent reaches the whole
// population in Θ(n log n) interactions with high probability, which is
// exactly the phase-clock round length — the protocol's half-rounds are
// sized so one broadcast completes per half.
//
// The package provides the transition as a pure function plus a standalone
// protocol for measuring completion times.
package epidemic

import "fmt"

// Spread is the one-way epidemic transition: the responder becomes infected
// iff it was infected already or the initiator is infected.
func Spread(responderInfected, initiatorInfected bool) bool {
	return responderInfected || initiatorInfected
}

// Protocol is the standalone one-way epidemic over a population of n agents,
// with the given number of initially-infected sources (agents 0..Sources-1).
// It stabilizes when everyone is infected.
//
// State packing (uint32): bit 0 = infected.
type Protocol struct {
	Size    int
	Sources int
}

// New builds the epidemic protocol.
func New(n, sources int) (*Protocol, error) {
	if n < 2 {
		return nil, fmt.Errorf("epidemic: population %d < 2", n)
	}
	if sources < 1 || sources > n {
		return nil, fmt.Errorf("epidemic: sources %d out of [1, %d]", sources, n)
	}
	return &Protocol{Size: n, Sources: sources}, nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("epidemic(k=%d)", p.Sources) }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.Size }

// Init implements sim.Protocol: the Sources infected agents come first.
func (p *Protocol) Init(yield func(uint32, int64)) {
	yield(1, int64(p.Sources))
	yield(0, int64(p.Size-p.Sources))
}

// Delta implements sim.Protocol.
func (p *Protocol) Delta(r, i uint32) (uint32, uint32) {
	if Spread(r == 1, i == 1) {
		return 1, i
	}
	return r, i
}

// NumClasses implements sim.Protocol.
func (p *Protocol) NumClasses() int { return 2 }

// Class implements sim.Protocol: 0 = susceptible, 1 = infected.
func (p *Protocol) Class(s uint32) uint8 { return uint8(s & 1) }

// Leader implements sim.Protocol; epidemics elect no leader.
func (p *Protocol) Leader(uint32) bool { return false }

// Stable implements sim.Protocol: stable when no agent is susceptible, so
// the whole live census (which churn moves away from Size) is infected.
// Infection is monotone, so this is absorbing.
func (p *Protocol) Stable(counts []int64) bool { return counts[0] == 0 }

// States implements sim.Enumerable.
func (p *Protocol) States() []uint32 { return []uint32{0, 1} }
