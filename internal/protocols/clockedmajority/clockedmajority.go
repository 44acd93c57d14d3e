// Package clockedmajority is a composed scenario protocol: exact majority
// computation driven by the paper's junta-formed phase clock. It is the
// first protocol written purely against the compose kit — junta formation
// (compose.Levels, whole-population climb) elects the clock junta, the
// clock (compose.Clock) relays rounds, and a protocol-specific module runs
// Draief & Vojnović's 4-state exact-majority dynamics with the
// opinion-conversion wave gated to the late half of each clock round:
//
//	X + Y → x + y   (strong opposites cancel — any time)
//	X + y → X + x   (strong converts opposing weak — late half only)
//	Y + x → Y + y
//
// The clock gating synchronizes conversion into per-round waves (the same
// technique the leader-election protocols use for their heads broadcasts)
// while cancellation — which consumes the #X − #Y invariant — runs at full
// speed, so the initial majority still wins exactly. The protocol
// demonstrates that a new clocked scenario costs one ~60-line module plus
// a composition, not a hand-rolled state machine; its States() enumeration
// is generated, so it runs on the counts backend at n = 10⁶⁺ (pinned by
// the registry scale test).
package clockedmajority

import (
	"fmt"

	"popelect/internal/compose"
	"popelect/internal/junta"
	"popelect/internal/phaseclock"
)

// Params configures the protocol.
type Params struct {
	N        int
	InitialX int // agents 0..InitialX−1 start with strong opinion X
	Gamma    int // phase clock resolution, default phaseclock.DefaultGamma(N)
	Phi      int // junta level cap, default junta.ChoosePhi
}

// DefaultParams returns working parameters for population size n, with a
// 60/40 initial split so the majority side is X.
func DefaultParams(n int) Params {
	return Params{
		N:        n,
		InitialX: n - n*2/5,
		Gamma:    phaseclock.DefaultGamma(n),
		Phi:      junta.ChoosePhi(n, maxPhi),
	}
}

const maxPhi = 1<<4 - 1 // packed 4-bit level field

// Opinions (also the census classes).
const (
	StrongX uint32 = iota
	StrongY
	WeakX
	WeakY
)

// Census classes: the four opinions.
const numClasses = 4

// Protocol implements sim.Protocol (and sim.Enumerable) through the
// compose kit.
type Protocol struct {
	*compose.Enumerated
	params  Params
	opinion compose.Field
}

// New builds an instance.
func New(p Params) (*Protocol, error) {
	if p.N < 2 {
		return nil, fmt.Errorf("clockedmajority: population %d < 2", p.N)
	}
	if p.InitialX < 0 || p.InitialX > p.N {
		return nil, fmt.Errorf("clockedmajority: initial X count %d out of [0, %d]", p.InitialX, p.N)
	}
	if err := phaseclock.Validate(p.Gamma); err != nil {
		return nil, err
	}
	if p.Phi < 1 || p.Phi > maxPhi {
		return nil, fmt.Errorf("clockedmajority: Phi %d out of [1, %d]", p.Phi, maxPhi)
	}
	pr := &Protocol{params: p}

	var a compose.Alloc
	phase := a.Bits(8, uint32(p.Gamma))
	level := a.Bits(4, uint32(p.Phi)+1)
	stop := a.Flag()
	pr.opinion = a.Bits(2, 4)
	if err := a.Err(); err != nil {
		return nil, err
	}

	levels := &compose.Levels{Level: level, Stop: stop, Phi: uint8(p.Phi)}
	base, err := compose.Build(compose.Config{
		Name: fmt.Sprintf("clocked-majority(Γ=%d,Φ=%d)", p.Gamma, p.Phi),
		N:    p.N,
		// The InitialX strong-X agents come first.
		Init: func(yield func(uint32, int64)) {
			yield(pr.opinion.Set(0, StrongX), int64(p.InitialX))
			yield(pr.opinion.Set(0, StrongY), int64(p.N-p.InitialX))
		},
		Modules: []compose.Module{
			// Junta ⇔ level = Φ, as a masked compare on the hot path.
			&compose.Clock{Phase: phase, Gamma: uint8(p.Gamma),
				JuntaMask: level.Mask(), JuntaVal: level.Set(0, uint32(p.Phi))},
			levels,
			&clockedExact{opinion: pr.opinion},
		},
		NumClasses: numClasses,
		Class:      func(s uint32) uint8 { return uint8(pr.opinion.Get(s)) },
		// Stable exactly as in the unclocked protocol: one side is fully
		// extinct, or an exact tie annihilated every strong opinion.
		Stable: func(counts []int64) bool {
			if counts[StrongX] == 0 && counts[StrongY] == 0 {
				return true
			}
			if counts[StrongY] == 0 && counts[WeakY] == 0 {
				return true
			}
			return counts[StrongX] == 0 && counts[WeakX] == 0
		},
	})
	if err != nil {
		return nil, err
	}
	if pr.Enumerated, err = base.Enumerable(); err != nil {
		return nil, err
	}
	return pr, nil
}

// MustNew is New for known-good parameters.
func MustNew(p Params) *Protocol {
	pr, err := New(p)
	if err != nil {
		panic(err)
	}
	return pr
}

// Params returns the protocol's configuration.
func (pr *Protocol) Params() Params { return pr.params }

// Opinion extracts an agent's opinion.
func (pr *Protocol) Opinion(s uint32) uint32 { return pr.opinion.Get(s) }

// Winner reports which opinion won: +1 for X, −1 for Y, 0 for an exact tie
// (all-weak deadlock). The second result is false if not yet stable.
func (pr *Protocol) Winner(counts []int64) (int, bool) {
	if !pr.Stable(counts) {
		return 0, false
	}
	switch {
	case counts[StrongY]+counts[WeakY] == 0:
		return 1, true
	case counts[StrongX]+counts[WeakX] == 0:
		return -1, true
	}
	return 0, true
}

// clockedExact is the protocol-specific module: exact-majority dynamics
// with conversion clock-gated to the late half of each round.
type clockedExact struct {
	opinion compose.Field
}

// Fields implements compose.Module.
func (m *clockedExact) Fields() []compose.Field { return []compose.Field{m.opinion} }

// Deliver implements compose.Module.
func (m *clockedExact) Deliver(env compose.Env, r, i uint32) (compose.Env, uint32, uint32) {
	ro, io := m.opinion.Get(r), m.opinion.Get(i)
	switch {
	case ro == StrongX && io == StrongY:
		// Cancellation burns one unit of the invariant on each side; it
		// runs unclocked so the margin drains at full speed.
		return env, m.opinion.Set(r, WeakX), m.opinion.Set(i, WeakY)
	case ro == StrongY && io == StrongX:
		return env, m.opinion.Set(r, WeakY), m.opinion.Set(i, WeakX)
	case env.Half == phaseclock.Late && ro == WeakY && io == StrongX:
		// Conversion is the broadcast leg: gate it to the late half so it
		// sweeps in per-round waves, like the election protocols' heads
		// epidemics.
		return env, m.opinion.Set(r, WeakX), i
	case env.Half == phaseclock.Late && ro == WeakX && io == StrongY:
		return env, m.opinion.Set(r, WeakY), i
	}
	return env, r, i
}
