package phaseclock

import "fmt"

// Standalone is a clock-only population protocol used to study Theorem 3.2
// in isolation: a fixed set of agents (indices < Junta) are clock leaders,
// everyone else is a follower, and the only state is the phase. It never
// stabilizes; run it for a fixed number of steps and inspect round
// statistics through hooks.
//
// State packing (uint32): bits 0..7 phase, bit 8 junta flag, bits 16..31
// rounds completed (saturating), so round synchrony can be read directly
// off the population.
type Standalone struct {
	Size  int
	Gamma uint8
	Junta int // the first Junta agents are clock leaders
}

// NewStandalone builds the clock-only protocol, validating parameters.
func NewStandalone(n int, gamma int, junta int) (*Standalone, error) {
	if err := Validate(gamma); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("phaseclock: population %d < 2", n)
	}
	if junta < 1 || junta > n {
		return nil, fmt.Errorf("phaseclock: junta size %d out of [1, %d]", junta, n)
	}
	return &Standalone{Size: n, Gamma: uint8(gamma), Junta: junta}, nil
}

const (
	phaseMask  = 0xff
	juntaBit   = 1 << 8
	roundShift = 16
	roundMask  = 0xffff
)

// Phase extracts the phase from a packed state.
func (c *Standalone) Phase(s uint32) uint8 { return uint8(s & phaseMask) }

// IsJunta reports whether a packed state belongs to a clock leader.
func (c *Standalone) IsJunta(s uint32) bool { return s&juntaBit != 0 }

// Rounds extracts the completed-round counter from a packed state.
func (c *Standalone) Rounds(s uint32) int { return int(s >> roundShift & roundMask) }

// Name implements sim.Protocol.
func (c *Standalone) Name() string { return fmt.Sprintf("phaseclock(Γ=%d)", c.Gamma) }

// N implements sim.Protocol.
func (c *Standalone) N() int { return c.Size }

// Init implements sim.Protocol: the Junta clock leaders come first, all
// at phase 0.
func (c *Standalone) Init(yield func(uint32, int64)) {
	yield(juntaBit, int64(c.Junta))
	yield(0, int64(c.Size-c.Junta))
}

// Delta implements sim.Protocol: the responder updates its phase; a pass
// through 0 increments its round counter.
func (c *Standalone) Delta(r, i uint32) (uint32, uint32) {
	old := c.Phase(r)
	var next uint8
	if c.IsJunta(r) {
		next = JuntaNext(c.Gamma, old, c.Phase(i))
	} else {
		next = FollowerNext(c.Gamma, old, c.Phase(i))
	}
	out := r&^uint32(phaseMask) | uint32(next)
	if PassedZero(old, next) {
		if rounds := r >> roundShift & roundMask; rounds < roundMask {
			out += 1 << roundShift
		}
	}
	return out, i
}

// NumClasses implements sim.Protocol.
func (c *Standalone) NumClasses() int { return 2 }

// Class implements sim.Protocol: 0 = follower, 1 = junta.
func (c *Standalone) Class(s uint32) uint8 {
	if c.IsJunta(s) {
		return 1
	}
	return 0
}

// Leader implements sim.Protocol; the clock elects no leader.
func (c *Standalone) Leader(uint32) bool { return false }

// Stable implements sim.Protocol; the clock never stabilizes.
func (c *Standalone) Stable([]int64) bool { return false }
