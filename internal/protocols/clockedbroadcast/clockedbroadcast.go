// Package clockedbroadcast is a composed scenario protocol: one-way
// epidemic broadcast with clocked termination detection. A single source
// agent holds a rumor that spreads by one-way epidemic (every informed
// initiator informs its responder); the paper's junta-formed phase clock
// (compose.Levels + compose.Clock) gives every agent a round counter, and
// an informed agent that has completed K full clock rounds since learning
// the rumor declares itself done — the clocked analogue of "the broadcast
// has had K·Θ(log n) parallel time to finish, so with high probability
// everyone knows".
//
// The composition exercises the kit's epidemic-plus-clock pattern outside
// leader election: the protocol stabilizes when every agent is done (the
// rumor is monotone and round counters only advance, so the predicate is
// absorbing), demonstrating clock-paced phase transitions — the building
// block of clocked multi-stage scenario protocols. Its States()
// enumeration is generated, so it runs on the counts backend at n = 10⁶⁺
// (pinned by the registry scale test).
package clockedbroadcast

import (
	"fmt"

	"popelect/internal/compose"
	"popelect/internal/junta"
	"popelect/internal/phaseclock"
)

// Params configures the protocol.
type Params struct {
	N       int
	Sources int // initially informed agents (indices 0..Sources−1), default 1
	Rounds  int // full clock rounds an informed agent waits before done, default 3
	Gamma   int // phase clock resolution, default phaseclock.DefaultGamma(N)
	Phi     int // junta level cap, default junta.ChoosePhi
}

// DefaultParams returns working parameters for population size n.
func DefaultParams(n int) Params {
	return Params{
		N:       n,
		Sources: 1,
		Rounds:  3,
		Gamma:   phaseclock.DefaultGamma(n),
		Phi:     junta.ChoosePhi(n, maxPhi),
	}
}

const (
	maxPhi    = 1<<4 - 1 // packed 4-bit level field
	maxRounds = 1<<3 - 1 // packed 3-bit round counter
)

// Census classes.
const (
	// ClassUninformed agents have not heard the rumor.
	ClassUninformed = iota
	// ClassSpreading agents know the rumor but are still counting rounds.
	ClassSpreading
	// ClassDone agents completed their post-rumor rounds.
	ClassDone
	numClasses
)

// Protocol implements sim.Protocol (and sim.Enumerable) through the
// compose kit.
type Protocol struct {
	*compose.Enumerated
	params   Params
	informed compose.Field
	rounds   compose.Field
}

// New builds an instance.
func New(p Params) (*Protocol, error) {
	if p.N < 2 {
		return nil, fmt.Errorf("clockedbroadcast: population %d < 2", p.N)
	}
	if p.Sources < 1 || p.Sources > p.N {
		return nil, fmt.Errorf("clockedbroadcast: sources %d out of [1, %d]", p.Sources, p.N)
	}
	if p.Rounds < 1 || p.Rounds > maxRounds {
		return nil, fmt.Errorf("clockedbroadcast: rounds %d out of [1, %d]", p.Rounds, maxRounds)
	}
	if err := phaseclock.Validate(p.Gamma); err != nil {
		return nil, err
	}
	if p.Phi < 1 || p.Phi > maxPhi {
		return nil, fmt.Errorf("clockedbroadcast: Phi %d out of [1, %d]", p.Phi, maxPhi)
	}
	pr := &Protocol{params: p}

	var a compose.Alloc
	phase := a.Bits(8, uint32(p.Gamma))
	level := a.Bits(4, uint32(p.Phi)+1)
	stop := a.Flag()
	pr.informed = a.Flag()
	pr.rounds = a.Bits(3, uint32(p.Rounds)+1)
	if err := a.Err(); err != nil {
		return nil, err
	}

	levels := &compose.Levels{Level: level, Stop: stop, Phi: uint8(p.Phi)}
	base, err := compose.Build(compose.Config{
		Name: fmt.Sprintf("clocked-broadcast(K=%d,Γ=%d)", p.Rounds, p.Gamma),
		N:    p.N,
		// The Sources informed agents come first.
		Init: func(yield func(uint32, int64)) {
			yield(pr.informed.Bit(), int64(p.Sources))
			yield(0, int64(p.N-p.Sources))
		},
		Modules: []compose.Module{
			// Junta ⇔ level = Φ, as a masked compare on the hot path.
			&compose.Clock{Phase: phase, Gamma: uint8(p.Gamma),
				JuntaMask: level.Mask(), JuntaVal: level.Set(0, uint32(p.Phi))},
			levels,
			&rumor{informed: pr.informed, rounds: pr.rounds, k: uint32(p.Rounds)},
		},
		NumClasses: numClasses,
		Class:      pr.classOf,
		Stable: func(counts []int64) bool {
			return counts[ClassUninformed] == 0 && counts[ClassSpreading] == 0
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

// Informed reports whether an agent has heard the rumor.
func (pr *Protocol) Informed(s uint32) bool { return pr.informed.On(s) }

// RoundsDone extracts an informed agent's completed-round count.
func (pr *Protocol) RoundsDone(s uint32) uint32 { return pr.rounds.Get(s) }

func (pr *Protocol) classOf(s uint32) uint8 {
	switch {
	case !pr.informed.On(s):
		return ClassUninformed
	case pr.rounds.Get(s) < uint32(pr.params.Rounds):
		return ClassSpreading
	default:
		return ClassDone
	}
}

// rumor is the protocol-specific module: the one-way epidemic plus the
// clock-paced countdown to done.
type rumor struct {
	informed compose.Field
	rounds   compose.Field
	k        uint32
}

// Fields implements compose.Module.
func (m *rumor) Fields() []compose.Field { return []compose.Field{m.informed, m.rounds} }

// Deliver implements compose.Module.
func (m *rumor) Deliver(env compose.Env, r, i uint32) (compose.Env, uint32, uint32) {
	if !m.informed.On(r) {
		// One-way epidemic: an informed initiator informs the responder,
		// whose round count starts at 0.
		if m.informed.On(i) {
			r = m.informed.Set(r, 1)
			r = m.rounds.Clear(r)
		}
		return env, r, i
	}
	// An informed agent pays down its rounds on each pass through 0, up to
	// the done threshold K (where the counter freezes — the absorbing
	// "done" output).
	if env.Passed {
		if c := m.rounds.Get(r); c < m.k {
			r = m.rounds.Set(r, c+1)
		}
	}
	return env, r, i
}
