// Package approxmajority implements the 3-state approximate-majority
// protocol of Angluin, Aspnes & Eisenstat (Distributed Computing 2008),
// cited by the paper as the origin of the one-way epidemic techniques its
// broadcasts rely on. Agents hold opinion X, opinion Y, or blank B:
//
//	X meets Y (as responder) → blank,
//	B meets X → X,   B meets Y → Y.
//
// From an initial gap of ω(√n log n) the majority opinion takes over the
// whole population in O(n log n) interactions with high probability.
package approxmajority

import "fmt"

// Opinions (also the census classes).
const (
	Blank uint32 = iota
	X
	Y
)

// Protocol implements sim.Protocol.
type Protocol struct {
	Size     int
	InitialX int // agents 0..InitialX-1 start with X, the rest with Y
}

// New builds the protocol with the given initial X-count.
func New(n, initialX int) (*Protocol, error) {
	if n < 2 {
		return nil, fmt.Errorf("approxmajority: population %d < 2", n)
	}
	if initialX < 0 || initialX > n {
		return nil, fmt.Errorf("approxmajority: initial X count %d out of [0, %d]", initialX, n)
	}
	return &Protocol{Size: n, InitialX: initialX}, nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "approx-majority(AAE08)" }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.Size }

// Init implements sim.Protocol: the InitialX X agents come first.
func (p *Protocol) Init(yield func(uint32, int64)) {
	yield(X, int64(p.InitialX))
	yield(Y, int64(p.Size-p.InitialX))
}

// Delta implements sim.Protocol: the responder updates by the one-way rules.
func (p *Protocol) Delta(r, i uint32) (uint32, uint32) {
	switch {
	case r == X && i == Y, r == Y && i == X:
		return Blank, i
	case r == Blank && i != Blank:
		return i, i
	}
	return r, i
}

// NumClasses implements sim.Protocol.
func (p *Protocol) NumClasses() int { return 3 }

// Class implements sim.Protocol.
func (p *Protocol) Class(s uint32) uint8 { return uint8(s) }

// Leader implements sim.Protocol; majority elects no leader.
func (p *Protocol) Leader(uint32) bool { return false }

// Stable implements sim.Protocol: consensus on X or Y is absorbing (the
// losing opinion and blanks are gone, so no rule fires again).
func (p *Protocol) Stable(counts []int64) bool {
	_, ok := p.Winner(counts)
	return ok
}

// Winner returns which opinion a stabilized census converged to.
// Consensus means one opinion holds the whole census: the live population,
// which churn moves away from Size.
func (p *Protocol) Winner(counts []int64) (uint32, bool) {
	n := counts[Blank] + counts[X] + counts[Y]
	switch {
	case counts[X] == n:
		return X, true
	case counts[Y] == n:
		return Y, true
	}
	return Blank, false
}

// States implements sim.Enumerable.
func (p *Protocol) States() []uint32 { return []uint32{Blank, X, Y} }
