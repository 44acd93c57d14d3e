// Package exactmajority implements the 4-state exact-majority protocol
// (Draief & Vojnović's binary interval consensus, also Mertzios et al.),
// cited in the paper's related work on majority computation: agents hold a
// strong or weak opinion,
//
//	X + Y → x + y   (two strong opposites cancel to weak)
//	X + y → X + x   (a strong opinion converts opposing weak ones)
//	Y + x → Y + y
//
// The difference #X − #Y of strong opinions is invariant, so the initial
// majority always wins exactly — never just with high probability — at the
// price of Θ(n log n / margin) expected interactions.
package exactmajority

import "fmt"

// Opinions (also census classes).
const (
	StrongX uint32 = iota
	StrongY
	WeakX
	WeakY
)

// Protocol implements sim.Protocol.
type Protocol struct {
	Size     int
	InitialX int // agents 0..InitialX-1 start with strong X, the rest strong Y
}

// New builds the protocol with the given initial strong-X count.
func New(n, initialX int) (*Protocol, error) {
	if n < 2 {
		return nil, fmt.Errorf("exactmajority: population %d < 2", n)
	}
	if initialX < 0 || initialX > n {
		return nil, fmt.Errorf("exactmajority: initial X count %d out of [0, %d]", initialX, n)
	}
	return &Protocol{Size: n, InitialX: initialX}, nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "exact-majority(DV12)" }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.Size }

// Init implements sim.Protocol: the InitialX strong-X agents come first.
func (p *Protocol) Init(yield func(uint32, int64)) {
	yield(StrongX, int64(p.InitialX))
	yield(StrongY, int64(p.Size-p.InitialX))
}

// Delta implements sim.Protocol.
func (p *Protocol) Delta(r, i uint32) (uint32, uint32) {
	switch {
	case r == StrongX && i == StrongY:
		return WeakX, WeakY
	case r == StrongY && i == StrongX:
		return WeakY, WeakX
	case r == WeakY && i == StrongX:
		return WeakX, i
	case r == WeakX && i == StrongY:
		return WeakY, i
	}
	return r, i
}

// NumClasses implements sim.Protocol.
func (p *Protocol) NumClasses() int { return 4 }

// Class implements sim.Protocol.
func (p *Protocol) Class(s uint32) uint8 { return uint8(s) }

// Leader implements sim.Protocol; majority elects no leader.
func (p *Protocol) Leader(uint32) bool { return false }

// Stable implements sim.Protocol: the configuration is stable when one side
// has no strong and no weak opinions left (clear majority), or when no
// strong opinions remain at all (an exact tie annihilated them, leaving
// inert weak opinions).
func (p *Protocol) Stable(counts []int64) bool {
	if counts[StrongX] == 0 && counts[StrongY] == 0 {
		return true
	}
	if counts[StrongY] == 0 && counts[WeakY] == 0 {
		return true
	}
	return counts[StrongX] == 0 && counts[WeakX] == 0
}

// Winner reports which opinion won: +1 for X, −1 for Y, 0 for an exact tie
// (all-weak deadlock). The second result is false if not yet stable.
func (p *Protocol) Winner(counts []int64) (int, bool) {
	if !p.Stable(counts) {
		return 0, false
	}
	xSide := counts[StrongX] + counts[WeakX]
	ySide := counts[StrongY] + counts[WeakY]
	switch {
	case ySide == 0:
		return 1, true
	case xSide == 0:
		return -1, true
	}
	return 0, true
}

// States implements sim.Enumerable.
func (p *Protocol) States() []uint32 { return []uint32{StrongX, StrongY, WeakX, WeakY} }
