package core

import (
	"fmt"

	"popelect/internal/compose"
	"popelect/internal/phaseclock"
)

// Packed-field descriptors of the state layout (see state.go), shared by
// the compose-kit modules the protocol consumes and the generated
// state-space enumeration. The leader-role fields overlay the coin and
// inhibitor payload bits, so only the per-role Space variants combine them.
func fieldPhase(gamma uint8) compose.Field { return compose.At(0, 8, uint32(gamma)) }

var (
	fieldLevel = compose.At(levelShift, 4, levelMask+1) // coin level / inhibitor drag
	fieldStop  = compose.At(15, 1, 2)                   // stopBit
	fieldHigh  = compose.At(16, 1, 2)                   // highBit
	fieldMode  = compose.At(lmodeShift, 2, 3)           // leader mode A/P/W
	fieldFlip  = compose.At(flipShift, 2, 3)            // flip none/heads/tails
	fieldHeads = compose.At(15, 1, 2)                   // headsSeenBit
	fieldCnt   = compose.At(cntShift, 6, cntMask+1)     // round counter
	fieldDrag  = compose.At(ldragShift, 4, ldragMask+1) // leader drag
)

// Protocol implements sim.Protocol for the paper's leader-election protocol.
// Create instances with New; the zero value is unusable.
type Protocol struct {
	params  Params
	gamma   uint8
	phi     uint8
	psi     uint8
	initCnt uint8

	// clock and levels are the shared compose-kit modules the protocol
	// consumes directly: the phase relay every responder runs, and the
	// Section 5 coin preprocessing of the C role.
	clock  compose.Clock
	levels compose.Levels
}

// New builds a protocol instance from validated parameters.
func New(p Params) (*Protocol, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pr := &Protocol{
		params:  p,
		gamma:   uint8(p.Gamma),
		phi:     uint8(p.Phi),
		psi:     uint8(p.Psi),
		initCnt: uint8(p.InitialCnt()),
	}
	pr.clock = compose.Clock{
		Phase: fieldPhase(pr.gamma),
		Gamma: pr.gamma,
		// Junta ⇔ a coin at level Φ (pr.isJunta), expressed as one
		// masked compare over the role and level bits for the hot path.
		JuntaMask: uint32(roleMask)<<roleShift | fieldLevel.Mask(),
		JuntaVal:  uint32(RoleC)<<roleShift | fieldLevel.Set(0, uint32(p.Phi)),
	}
	pr.levels = compose.Levels{
		Level: fieldLevel,
		Stop:  fieldStop,
		Phi:   pr.phi,
		// Only coins advance other coins; every other role stops a climb.
		Other: func(i uint32) (uint8, bool) {
			st := State(i)
			return st.CoinLevel(), st.Role() == RoleC
		},
	}
	return pr, nil
}

// MustNew is New for known-good parameters; it panics on error.
func MustNew(p Params) *Protocol {
	pr, err := New(p)
	if err != nil {
		panic(err)
	}
	return pr
}

// Params returns the protocol's configuration.
func (pr *Protocol) Params() Params { return pr.params }

// Name implements sim.Protocol.
func (pr *Protocol) Name() string {
	suffix := ""
	if pr.params.NoFastElim {
		suffix += "-nofast"
	}
	if pr.params.NoDrag {
		suffix += "-nodrag"
	}
	return fmt.Sprintf("gsu19(Γ=%d,Φ=%d,Ψ=%d)%s", pr.params.Gamma, pr.params.Phi, pr.params.Psi, suffix)
}

// N implements sim.Protocol.
func (pr *Protocol) N() int { return pr.params.N }

// isJunta reports whether an agent is a clock leader: a coin at level Φ.
func (pr *Protocol) isJunta(s State) bool {
	return s.Role() == RoleC && s.CoinLevel() == pr.phi
}

// Delta implements sim.Protocol. The responder r always relays the phase
// clock (the shared compose.Clock module); on top of that, the
// role-specific rules of Sections 4–8 apply. The initiator i changes only
// under the symmetry-breaking rule (1) and the slow-backup rule (11).
func (pr *Protocol) Delta(r, i State) (State, State) {
	w, passed, half := pr.clock.Advance(uint32(r), uint32(i))
	nr := State(w)
	ni := i

	switch r.Role() {
	case RoleZero:
		if passed {
			// Rule (2): stragglers deactivate at the end of the
			// first round.
			nr = nr.withRolePayload(RoleD, 0)
		} else if i.Role() == RoleZero {
			// Rule (1), first split: 0 + 0 → X + L.
			nr = nr.withRolePayload(RoleX, 0)
			ni = i.withLeader(ModeActive, FlipNone, false, pr.initCnt, 0)
		}
	case RoleX:
		if passed {
			nr = nr.withRolePayload(RoleD, 0)
		} else if i.Role() == RoleX {
			// Rule (1), second split: X + X → C + I.
			nr = nr.withCoin(0, false)
			ni = i.withInhib(0, false, false)
		}
	case RoleC:
		// Section 5 coin preprocessing through the shared junta-formation
		// module (a no-op once the coin has stopped climbing).
		nr = State(pr.levels.Climb(uint32(nr), uint32(i)))
	case RoleI:
		nr = pr.inhibitorDelta(nr, i, half)
	case RoleL:
		nr, ni = pr.leaderDelta(nr, i, passed, half)
	}
	return nr, ni
}

// inhibitorDelta applies the Section 7 inhibitor rules to the responder
// (whose phase is already updated in nr).
func (pr *Protocol) inhibitorDelta(nr, i State, half phaseclock.Half) State {
	if pr.params.NoDrag {
		return nr
	}
	if !nr.InhibStopped() {
		// Preprocessing, late halves only: a synthetic coin flip per
		// responder interaction — advance on meeting a coin (success,
		// probability ≈ 1/4), stop otherwise. This follows Lemma
		// 7.1's direction (D_ℓ ∝ 4^{−ℓ}); see DESIGN.md §5.1.
		if half == phaseclock.Late {
			if i.Role() == RoleC {
				drag := nr.InhibDrag() + 1
				if drag >= pr.psi {
					return nr.withInhib(pr.psi, true, false)
				}
				return nr.withInhib(drag, false, false)
			}
			return nr.withInhib(nr.InhibDrag(), true, false)
		}
		return nr
	}
	if nr.InhibHigh() {
		return nr
	}
	// Rule (8): a stopped low inhibitor meeting an active leader at its
	// own drag value becomes high…
	if i.Role() == RoleL && i.Mode() == ModeActive && i.LeaderDrag() == nr.InhibDrag() {
		return nr.withInhib(nr.InhibDrag(), true, true)
	}
	// …and elevation spreads among same-drag inhibitors by one-way
	// epidemic.
	if i.Role() == RoleI && i.InhibHigh() && i.InhibDrag() == nr.InhibDrag() {
		return nr.withInhib(nr.InhibDrag(), true, true)
	}
	return nr
}

// leaderDelta applies the Section 6–8 leader-candidate rules to the
// responder (phase already updated in nr) and, for rules (1)/(11), to the
// initiator.
func (pr *Protocol) leaderDelta(nr, i State, passed bool, half phaseclock.Half) (State, State) {
	mode := nr.Mode()
	flip := nr.FlipVal()
	heads := nr.HeadsSeen()
	cnt := nr.Cnt()
	drag := nr.LeaderDrag()

	// Rules (3)/(3'): on the responder's pass through 0, decrement the
	// round counter (entering the final epoch at 0, where it stays) and
	// reset the per-round flip state.
	if passed {
		if cnt > 0 {
			cnt--
		}
		flip = FlipNone
		heads = false
	}

	// Rules (4)/(5): in the early half of a round, an active candidate
	// that has not flipped yet uses the scheduled coin: heads iff the
	// initiator is a coin at level ≥ γ(cnt). The warm-up round (counter
	// still at its initial value) does not flip; with NoFastElim no coin
	// is used until the final epoch.
	if mode == ModeActive && flip == FlipNone && half == phaseclock.Early &&
		cnt != pr.initCnt && !(pr.params.NoFastElim && cnt > 0) {
		level := uint8(pr.params.ScheduleLevel(int(cnt)))
		if i.Role() == RoleC && i.CoinLevel() >= level {
			flip = FlipHeads
			heads = true
		} else {
			flip = FlipTails
		}
	}

	// Rules (6)/(7): in the late half, "heads were drawn" spreads by
	// one-way epidemic among leader candidates; an active candidate
	// holding tails that learns of heads becomes passive.
	if half == phaseclock.Late && !heads && i.Role() == RoleL && i.HeadsSeen() {
		heads = true
		if mode == ModeActive && flip == FlipTails {
			mode = ModePassive
		}
	}

	// Rule (10): final epoch only — an active candidate holding heads
	// that meets a high inhibitor at its own drag value increments its
	// drag. (Gated on cnt == 0; see DESIGN.md §5.2.)
	if !pr.params.NoDrag && mode == ModeActive && flip == FlipHeads && cnt == 0 &&
		i.Role() == RoleI && i.InhibHigh() && i.InhibDrag() == drag && drag < pr.psi {
		drag++
	}

	if i.Role() == RoleL {
		if i.LeaderDrag() > drag {
			// Rule (9): seeing a strictly larger drag value proves
			// an active candidate survived longer — withdraw and
			// adopt the larger value (which keeps propagating).
			mode = ModeWithdrawn
			drag = i.LeaderDrag()
		} else if mode != ModeWithdrawn && i.Mode() != ModeWithdrawn {
			// Rule (11): the slow backup — of two alive candidates
			// the junior withdraws; an exact tie eliminates the
			// initiator, so exactly one always survives.
			probe := nr.withLeader(mode, flip, heads, cnt, drag)
			if Seniority(i, probe) > 0 {
				mode = ModeWithdrawn
			} else {
				ni := i.withLeader(ModeWithdrawn, i.FlipVal(), i.HeadsSeen(), i.Cnt(), i.LeaderDrag())
				return nr.withLeader(mode, flip, heads, cnt, drag), ni
			}
		}
	}
	return nr.withLeader(mode, flip, heads, cnt, drag), i
}

// Census classes tracked incrementally by the engine.
const (
	ClassZero = iota
	ClassX
	ClassC
	ClassI
	ClassD
	ClassActive
	ClassPassive
	ClassWithdrawn
	NumClasses
)

// NumClasses implements sim.Protocol.
func (pr *Protocol) NumClasses() int { return NumClasses }

// Class implements sim.Protocol.
func (pr *Protocol) Class(s State) uint8 {
	switch s.Role() {
	case RoleL:
		return ClassActive + uint8(s.Mode())
	case RoleD:
		return ClassD
	default:
		return uint8(s.Role()) // Zero, X, C, I occupy classes 0..3
	}
}

// Leader implements sim.Protocol: active and passive candidates map to the
// leader output (Section 8's output mapping).
func (pr *Protocol) Leader(s State) bool { return s.Alive() }

// Stable implements sim.Protocol. The configuration has stabilized when
// exactly one alive candidate remains and at most one uninitiated agent is
// left (a single 0 can never meet another 0, so no new candidate can ever
// be created; the last alive candidate can never withdraw by Lemma 8.1).
func (pr *Protocol) Stable(counts []int64) bool {
	return counts[ClassActive]+counts[ClassPassive] == 1 && counts[ClassZero] <= 1
}

// Space declares the packed state space as compose-kit role variants: each
// role's payload fields with their parameter-bounded reachable ranges —
// coin levels and scheduled-coin arguments capped at Φ, drag values at Ψ,
// the round counter at InitialCnt. This is what generates States(); the
// core closure tests (and the registry-wide ones) assert that whole runs
// never leave it.
func (pr *Protocol) Space() *compose.Space {
	phase := fieldPhase(pr.gamma).Dim()
	role := func(rl Role) uint32 { return uint32(rl) << roleShift }
	sp := compose.NewSpace()
	// Phase-only roles.
	sp.Variant(role(RoleZero), phase)
	sp.Variant(role(RoleX), phase)
	sp.Variant(role(RoleD), phase)
	// Coins: level × stopped.
	sp.Variant(role(RoleC), phase, fieldLevel.DimTo(uint32(pr.phi)), fieldStop.Dim())
	// Inhibitors: drag × stopped × high.
	sp.Variant(role(RoleI), phase, fieldLevel.DimTo(uint32(pr.psi)), fieldStop.Dim(), fieldHigh.Dim())
	// Leader candidates: mode × flip × headsSeen × cnt × drag.
	sp.Variant(role(RoleL), phase, fieldMode.Dim(), fieldFlip.Dim(), fieldHeads.Dim(),
		fieldCnt.DimTo(uint32(pr.initCnt)), fieldDrag.DimTo(uint32(pr.psi)))
	return sp
}

// States implements sim.Enumerable: the enumeration generated from Space —
// a finite superset of the reachable states (flag combinations that no
// rule produces are harmless: they never acquire census counts). This lets
// the counts backend run the paper's protocol at populations of 10⁸–10⁹.
func (pr *Protocol) States() []State {
	words := pr.Space().States()
	out := make([]State, len(words))
	for k, w := range words {
		out[k] = State(w)
	}
	return out
}

// Words is the protocol as the engines run it: sim.Enumerable over packed
// uint32 words. The typed methods stay on Protocol for callers that read
// states through the State accessors; Words converts at the boundary and
// adds no state of its own. Name, N, NumClasses and Stable come from the
// embedded Protocol.
type Words struct{ *Protocol }

// Words returns the engines' view of pr.
func (pr *Protocol) Words() Words { return Words{pr} }

// Init implements sim.Protocol: every agent starts uninitiated at phase 0,
// the all-zero state.
func (w Words) Init(yield func(uint32, int64)) { yield(0, int64(w.N())) }

// Delta implements sim.Protocol.
func (w Words) Delta(r, i uint32) (uint32, uint32) {
	nr, ni := w.Protocol.Delta(State(r), State(i))
	return uint32(nr), uint32(ni)
}

// Class implements sim.Protocol.
func (w Words) Class(s uint32) uint8 { return w.Protocol.Class(State(s)) }

// Leader implements sim.Protocol.
func (w Words) Leader(s uint32) bool { return w.Protocol.Leader(State(s)) }

// States implements sim.Enumerable: Space's enumeration, in the order
// Protocol.States lists it (checkpoints store states as indices into it).
func (w Words) States() []uint32 { return w.Space().States() }
