// Package slow implements the classic constant-state leader-election
// protocol from Angluin et al. (PODC 2004), used by the paper as the
// always-correct backup (Section 8): every agent starts as a leader
// candidate, and when two candidates meet exactly one survives. It uses 2
// states and stabilizes in Θ(n) parallel time (Θ(n²) interactions) — the
// baseline row of Table 1 that every fast protocol is measured against.
package slow

import "fmt"

// States.
const (
	follower uint32 = iota
	leader
)

// Protocol implements sim.Protocol.
type Protocol struct {
	Size int
}

// New builds the slow protocol for a population of n agents.
func New(n int) (*Protocol, error) {
	if n < 2 {
		return nil, fmt.Errorf("slow: population %d < 2", n)
	}
	return &Protocol{Size: n}, nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "slow(AAD+04)" }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.Size }

// Init implements sim.Protocol: everyone starts as a leader candidate.
func (p *Protocol) Init(yield func(uint32, int64)) { yield(leader, int64(p.N())) }

// Delta implements sim.Protocol: two candidates meeting eliminate the
// responder; all other encounters are null.
func (p *Protocol) Delta(r, i uint32) (uint32, uint32) {
	if r == leader && i == leader {
		return follower, leader
	}
	return r, i
}

// NumClasses implements sim.Protocol.
func (p *Protocol) NumClasses() int { return 2 }

// Class implements sim.Protocol.
func (p *Protocol) Class(s uint32) uint8 { return uint8(s) }

// Leader implements sim.Protocol.
func (p *Protocol) Leader(s uint32) bool { return s == leader }

// Stable implements sim.Protocol: the candidate count only decreases and
// cannot pass 1, so one candidate is absorbing.
func (p *Protocol) Stable(counts []int64) bool { return counts[leader] == 1 }

// States implements sim.Enumerable.
func (p *Protocol) States() []uint32 { return []uint32{follower, leader} }
