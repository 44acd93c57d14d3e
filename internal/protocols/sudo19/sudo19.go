// Package sudo19 implements a clockless logarithmic-expected-time leader
// election in the spirit of Sudo, Ooshita, Izumi, Kakugawa & Masuzawa
// (arXiv:1812.11309): every agent draws a geometric level with the parity
// synthetic coin, the largest level spreads by one-way epidemic and
// outranked candidates withdraw, and the frontier candidates keep raising
// their level — each counts an interaction timer down from T and, at zero,
// flips the coin to climb one more level — until a single raise outruns the
// others' epidemic and every rival withdraws. Unlike GS18 and the lottery
// there is no phase clock at all: the timer plays the clock's role locally,
// so the protocol is clockless (Clocked: false in the registry) and its
// expected stabilization time is O(log n) parallel time rather than the
// clocked baselines' O(log² n).
//
// The protocol uses O(log n) states: a level in 0..L (L = 2·⌈log₂ n⌉), the
// max-level epidemic value, and a timer in 0..T (T = 4·⌈log₂ n⌉).
//
// It is assembled from the compose kit — the shared Parity and Duel modules
// plus the protocol-specific leveling module — and declares a pruned state
// space (see newSpace), so it runs on the counts backend too.
package sudo19

import (
	"fmt"
	"math"

	"popelect/internal/compose"
)

// Params configures the protocol.
type Params struct {
	N           int
	MaxLevel    int // level cap L, default 2·⌈log₂ n⌉ (≤ 63)
	Timer       int // raise-timer range T, default 4·⌈log₂ n⌉ (≤ 63)
	WarmupReads int // interactions before leveling starts, default 5
}

// DefaultParams returns working parameters for population size n.
func DefaultParams(n int) Params {
	log2 := int(math.Ceil(math.Log2(float64(n))))
	maxLevel := 2 * log2
	if maxLevel > 63 {
		maxLevel = 63
	}
	if maxLevel < 4 {
		maxLevel = 4
	}
	timer := 4 * log2
	if timer > 63 {
		timer = 63
	}
	if timer < 8 {
		timer = 8
	}
	return Params{N: n, MaxLevel: maxLevel, Timer: timer, WarmupReads: 5}
}

// Protocol implements sim.Protocol (and sim.Enumerable) through the
// compose kit.
type Protocol struct {
	*compose.Enumerated
	params Params

	level compose.Field
	done  compose.Field
	cand  compose.Field
}

// New builds a sudo19 instance.
func New(p Params) (*Protocol, error) {
	if p.N < 2 {
		return nil, fmt.Errorf("sudo19: population %d < 2", p.N)
	}
	if p.MaxLevel < 2 || p.MaxLevel > 63 {
		return nil, fmt.Errorf("sudo19: MaxLevel %d out of [2, 63]", p.MaxLevel)
	}
	if p.Timer < 1 || p.Timer > 63 {
		return nil, fmt.Errorf("sudo19: Timer %d out of [1, 63]", p.Timer)
	}
	if p.WarmupReads < 0 || p.WarmupReads > 7 {
		return nil, fmt.Errorf("sudo19: WarmupReads %d out of [0, 7]", p.WarmupReads)
	}
	pr := &Protocol{params: p}

	var a compose.Alloc
	pr.level = a.Bits(6, uint32(p.MaxLevel)+1)
	maxSeen := a.Bits(6, uint32(p.MaxLevel)+1)
	timer := a.Bits(6, uint32(p.Timer)+1)
	pr.done = a.Flag()
	pr.cand = a.Flag()
	parity := a.Flag()
	warm := a.Bits(3, uint32(p.WarmupReads)+1)
	if err := a.Err(); err != nil {
		return nil, err
	}

	lv := &leveling{
		level: pr.level, maxSeen: maxSeen, timer: timer,
		done: pr.done, cand: pr.cand, warm: warm,
		maxLevel: uint32(p.MaxLevel), timerTop: uint32(p.Timer),
	}
	base, err := compose.Build(compose.Config{
		Name: fmt.Sprintf("sudo19(L=%d,T=%d)", p.MaxLevel, p.Timer),
		N:    p.N,
		// Everyone starts as a candidate with warm-up reads pending.
		Init: func(yield func(uint32, int64)) {
			yield(pr.cand.Set(warm.Set(0, uint32(p.WarmupReads)), 1), int64(p.N))
		},
		Modules: []compose.Module{
			&compose.Parity{Bit: parity},
			lv,
			// Two frontier candidates stuck at the level cap resolve by
			// direct elimination: the initiator loses.
			&compose.Duel{Cand: pr.cand,
				Eligible: func(s uint32) bool {
					return pr.cand.On(s) && pr.done.On(s) && pr.level.Get(s) == uint32(p.MaxLevel)
				},
				Senior: func(r, i uint32) int { return 0 },
			},
		},
		NumClasses: numClasses,
		Class:      pr.classOf,
		Leader:     func(s uint32) bool { return pr.cand.On(s) && pr.done.On(s) },
		Stable: func(counts []int64) bool {
			return counts[ClassCandidate] == 1 && counts[ClassDrawing] == 0
		},
		Space: newSpace(pr.level, maxSeen, timer, pr.done, pr.cand, parity, warm,
			uint32(p.MaxLevel), uint32(p.WarmupReads)),
	})
	if err != nil {
		return nil, err
	}
	if pr.Enumerated, err = base.Enumerable(); err != nil {
		return nil, err
	}
	return pr, nil
}

// newSpace declares the protocol's state space, pruned by its reachability
// invariants:
//
//   - while the warm-up runs (warm > 0): level = timer = 0, not done;
//   - while drawing (warm = 0, not done): any level, timer still 0 —
//     level and maxSeen range independently (the epidemic reaches agents
//     regardless of progress; an agent's own level folds into maxSeen only
//     at the done transition);
//   - a done candidate always rests at maxSeen = level: any path that
//     raises maxSeen above the level withdraws the candidacy in the same
//     interaction, and a timer raise lifts maxSeen along with the level;
//   - a done non-candidate froze its level and timer at withdrawal, with
//     maxSeen ≥ level (strictly greater for epidemic withdrawals, equal
//     for duel losers at the cap).
//
// maxSeen and the parity bit range freely everywhere else.
func newSpace(level, maxSeen, timer, done, cand, parity, warm compose.Field,
	maxLevel, warmupReads uint32) *compose.Space {
	sp := compose.NewSpace()
	for w := uint32(1); w <= warmupReads; w++ {
		sp.Variant(cand.Set(warm.Set(0, w), 1),
			maxSeen.Dim(), parity.Dim())
	}
	sp.Variant(cand.Set(0, 1),
		level.Dim(), maxSeen.Dim(), parity.Dim())
	for lv := uint32(0); lv <= maxLevel; lv++ {
		sp.Variant(done.Set(cand.Set(level.Set(maxSeen.Set(0, lv), lv), 1), 1),
			timer.Dim(), parity.Dim())
		sp.Variant(done.Set(level.Set(0, lv), 1),
			maxSeen.DimRange(lv, maxLevel), timer.Dim(), parity.Dim())
	}
	return sp
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

// Level extracts an agent's level.
func (pr *Protocol) Level(s uint32) uint32 { return pr.level.Get(s) }

// Done reports whether an agent has finished its geometric draw.
func (pr *Protocol) Done(s uint32) bool { return pr.done.On(s) }

// Candidate reports whether an agent is a live candidate.
func (pr *Protocol) Candidate(s uint32) bool { return pr.cand.On(s) }

// leveling is the protocol-specific module: the geometric level draw off
// the synthetic coin, the timer-driven frontier raising, the max-level
// one-way epidemic, and withdrawal of outranked candidates.
type leveling struct {
	level, maxSeen, timer, done, cand, warm compose.Field
	maxLevel, timerTop                      uint32
}

// Fields implements compose.Module. (cand is declared here; the Duel
// module declares no fields of its own.)
func (m *leveling) Fields() []compose.Field {
	return []compose.Field{m.level, m.maxSeen, m.timer, m.done, m.cand, m.warm}
}

// Deliver implements compose.Module.
func (m *leveling) Deliver(env compose.Env, r, i uint32) (compose.Env, uint32, uint32) {
	switch {
	case m.warm.Get(r) > 0:
		// Warm-up reads let the parity coin mix before leveling.
		r = m.warm.Set(r, m.warm.Get(r)-1)
	case !m.done.On(r):
		// Geometric draw: count heads until the first tails.
		if env.Coin && m.level.Get(r) < m.maxLevel {
			r = m.level.Set(r, m.level.Get(r)+1)
		} else {
			r = m.done.Set(r, 1)
			r = m.timer.Set(r, m.timerTop)
			if lv := m.level.Get(r); lv > m.maxSeen.Get(r) {
				r = m.maxSeen.Set(r, lv)
			}
		}
	case m.cand.On(r):
		// Frontier raising: a live candidate counts its timer down and, at
		// zero, flips the coin to climb one more level (lifting maxSeen
		// along — a resting candidate always sits at maxSeen = level).
		if t := m.timer.Get(r); t > 0 {
			r = m.timer.Set(r, t-1)
		} else {
			if env.Coin && m.level.Get(r) < m.maxLevel {
				lv := m.level.Get(r) + 1
				r = m.level.Set(r, lv)
				r = m.maxSeen.Set(r, lv)
			}
			r = m.timer.Set(r, m.timerTop)
		}
	}

	// Max-level epidemic: adopt the initiator's maxSeen.
	if ms := m.maxSeen.Get(i); ms > m.maxSeen.Get(r) {
		r = m.maxSeen.Set(r, ms)
	}

	// A finished candidate that has heard of a strictly larger level
	// withdraws.
	if m.cand.On(r) && m.done.On(r) && m.maxSeen.Get(r) > m.level.Get(r) {
		r = m.cand.Clear(r)
	}
	return env, r, i
}

// Census classes.
const (
	// ClassDrawing agents have not finished their geometric draw.
	ClassDrawing = iota
	// ClassFollower agents are finished non-candidates.
	ClassFollower
	// ClassCandidate agents are finished live candidates.
	ClassCandidate
	numClasses
)

func (pr *Protocol) classOf(s uint32) uint8 {
	switch {
	case !pr.done.On(s):
		return ClassDrawing
	case pr.cand.On(s):
		return ClassCandidate
	default:
		return ClassFollower
	}
}
