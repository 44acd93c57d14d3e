// Package lottery implements a BKKO18-style leader election (Berenbrink,
// Kaaser, Kling & Otterbach, SOSA 2018, as described in the paper's related
// work): every agent draws a geometric rank with the parity synthetic coin
// (count heads until the first tails, capped at 2·log₂ n — so Θ(log n)
// states), the maximum rank spreads by one-way epidemic and lower-ranked
// candidates withdraw, and the surviving max-rank candidates tie-break with
// clocked near-fair coin rounds exactly like GS18. The clock junta is the
// set of agents with rank ≥ 0.4·log₂ n (≈ n^0.6 agents).
//
// The protocol uses O(log n) states and stabilizes in O(log² n) parallel
// time with high probability — the [BKKO18]/[AAG18] row of Table 1.
//
// It is assembled from the compose kit — the shared Clock, Parity, Rounds
// and Duel modules plus a protocol-specific geometric-ranking module — with
// the historical state packing preserved bit for bit. Unlike the pre-kit
// implementation, the kit generates a States() enumeration (pruned by the
// protocol's reachability invariants, see newSpace), so the lottery now
// runs on the counts backend too.
package lottery

import (
	"fmt"
	"math"

	"popelect/internal/compose"
	"popelect/internal/phaseclock"
)

// Params configures the lottery baseline.
type Params struct {
	N           int
	Gamma       int // phase clock resolution, default phaseclock.DefaultGamma(N)
	MaxRank     int // rank cap, default 2·⌈log₂ n⌉ (≤ 63)
	JuntaRank   int // clock-junta rank threshold, default ⌈0.4·log₂ n⌉
	WarmupReads int // interactions before ranking starts, default 5
}

// DefaultParams returns working parameters for population size n.
func DefaultParams(n int) Params {
	log2 := math.Log2(float64(n))
	maxRank := 2 * int(math.Ceil(log2))
	if maxRank > 63 {
		maxRank = 63
	}
	if maxRank < 4 {
		maxRank = 4
	}
	jr := int(math.Ceil(0.4 * log2))
	if jr < 2 {
		jr = 2
	}
	return Params{N: n, Gamma: phaseclock.DefaultGamma(n), MaxRank: maxRank, JuntaRank: jr, WarmupReads: 5}
}

// State packing (uint32), preserved from the pre-kit implementation:
//
//	bits  0..7   phase
//	bits  8..13  rank
//	bits 14..19  maxSeen (largest finished rank heard of)
//	bit  20      rankDone
//	bit  21      candidate
//	bit  22      parity
//	bits 23..24  flip
//	bit  25      headsSeen
//	bits 26..28  warm-up interactions before ranking
//	bits 29..30  warm-up rounds before coin flipping
const (
	rankShift      = 8
	maxSeenShift   = 14
	doneBit        = 1 << 20
	candBit        = 1 << 21
	parityBit      = 1 << 22
	flipShift      = 23
	headsSeenBit   = 1 << 25
	warmShift      = 26
	roundWarmShift = 29
)

const flipWarmupRounds = 2

// Protocol implements sim.Protocol (and, since the kit rebuild,
// sim.Enumerable) through the compose kit.
type Protocol struct {
	*compose.Enumerated
	params    Params
	gamma     uint8
	maxRank   uint32
	juntaRank uint32

	rank compose.Field
	done compose.Field
	cand compose.Field
}

// New builds a lottery instance.
func New(p Params) (*Protocol, error) {
	if p.N < 2 {
		return nil, fmt.Errorf("lottery: population %d < 2", p.N)
	}
	if err := phaseclock.Validate(p.Gamma); err != nil {
		return nil, err
	}
	if p.MaxRank < 2 || p.MaxRank > 63 {
		return nil, fmt.Errorf("lottery: MaxRank %d out of [2, 63]", p.MaxRank)
	}
	if p.JuntaRank < 1 || p.JuntaRank >= p.MaxRank {
		return nil, fmt.Errorf("lottery: JuntaRank %d out of [1, MaxRank)", p.JuntaRank)
	}
	if p.WarmupReads < 0 || p.WarmupReads > 7 {
		return nil, fmt.Errorf("lottery: WarmupReads %d out of [0, 7]", p.WarmupReads)
	}
	pr := &Protocol{
		params:    p,
		gamma:     uint8(p.Gamma),
		maxRank:   uint32(p.MaxRank),
		juntaRank: uint32(p.JuntaRank),
	}

	// The historical packing, reproduced by allocation order.
	var a compose.Alloc
	phase := a.Bits(8, uint32(p.Gamma))
	pr.rank = a.Bits(6, pr.maxRank+1)
	maxSeen := a.Bits(6, pr.maxRank+1)
	pr.done = a.Flag()
	pr.cand = a.Flag()
	parity := a.Flag()
	flip := a.Bits(2, 3)
	heads := a.Flag()
	warm := a.Bits(3, uint32(p.WarmupReads)+1)
	roundWarm := a.Bits(2, flipWarmupRounds+1)
	if err := a.Err(); err != nil {
		return nil, err
	}
	if pr.rank.Shift != rankShift || maxSeen.Shift != maxSeenShift ||
		pr.done.Bit() != doneBit || pr.cand.Bit() != candBit ||
		parity.Bit() != parityBit || flip.Shift != flipShift ||
		heads.Bit() != headsSeenBit || warm.Shift != warmShift ||
		roundWarm.Shift != roundWarmShift {
		return nil, fmt.Errorf("lottery: field allocation diverged from the historical packing")
	}

	rk := &ranking{
		rank: pr.rank, maxSeen: maxSeen, done: pr.done, cand: pr.cand,
		warm: warm, roundWarm: roundWarm, maxRank: pr.maxRank,
	}
	base, err := compose.Build(compose.Config{
		Name: fmt.Sprintf("lottery(BKKO18,R=%d)", p.MaxRank),
		N:    p.N,
		// Everyone starts as a candidate with warm-up reads pending.
		Init: func(yield func(uint32, int64)) {
			yield(pr.cand.Set(warm.Set(0, uint32(p.WarmupReads)), 1), int64(p.N))
		},
		Modules: []compose.Module{
			&compose.Clock{Phase: phase, Gamma: pr.gamma, IsJunta: func(s uint32) bool {
				return pr.done.On(s) && pr.rank.Get(s) >= pr.juntaRank
			}},
			&compose.Parity{Bit: parity},
			rk,
			&compose.Rounds{Cand: pr.cand, Flip: flip, Heads: heads, Warm: roundWarm, Gate: pr.done.On},
			&compose.Duel{Cand: pr.cand,
				// Only finished candidates duel: higher rank wins, then
				// heads > none > tails, then the initiator loses.
				Eligible: func(s uint32) bool { return pr.cand.On(s) && pr.done.On(s) },
				Senior: func(r, i uint32) int {
					if d := int(pr.rank.Get(i)) - int(pr.rank.Get(r)); d != 0 {
						return d
					}
					return compose.FlipRank(flip.Get(i)) - compose.FlipRank(flip.Get(r))
				}},
		},
		NumClasses: numClasses,
		Class:      pr.classOf,
		Leader:     func(s uint32) bool { return pr.cand.On(s) && pr.done.On(s) },
		Stable: func(counts []int64) bool {
			return counts[ClassCandidate] == 1 && counts[ClassRanking] == 0
		},
		Space: newSpace(phase, pr.rank, maxSeen, pr.done, pr.cand, parity, flip,
			heads, warm, roundWarm, pr.maxRank, uint32(p.WarmupReads)),
	})
	if err != nil {
		return nil, err
	}
	if pr.Enumerated, err = base.Enumerable(); err != nil {
		return nil, err
	}
	return pr, nil
}

// newSpace declares the lottery's state space, pruned by its reachability
// invariants — the full cross product of the packed fields would enumerate
// tens of millions of words, while the reachable space is bounded by:
//
//   - while the ranking warm-up runs (warm > 0): rank = 0, no flip state;
//   - while ranking (warm = 0, not done): any rank, still no flip state
//     (flipping requires a finished rank), round warm-up untouched;
//   - once done: rank frozen, maxSeen ≥ rank (it absorbs the agent's own
//     rank at the done transition and only grows), full flip machinery.
//
// headsSeen and maxSeen spread by epidemic to every agent regardless of
// progress, so they range freely in all variants. The closure tests run
// every registered protocol and assert reached ⊆ enumerated.
func newSpace(phase, rank, maxSeen, done, cand, parity, flip, heads, warm, roundWarm compose.Field,
	maxRank, warmupReads uint32) *compose.Space {
	sp := compose.NewSpace()
	for w := uint32(1); w <= warmupReads; w++ {
		sp.Variant(cand.Set(warm.Set(0, w), 1),
			phase.Dim(), maxSeen.Dim(), heads.Dim(), parity.Dim())
	}
	sp.Variant(cand.Set(0, 1),
		phase.Dim(), rank.Dim(), maxSeen.Dim(), heads.Dim(), parity.Dim())
	for rk := uint32(0); rk <= maxRank; rk++ {
		sp.Variant(done.Set(rank.Set(0, rk), 1),
			phase.Dim(), maxSeen.DimRange(rk, maxRank), cand.Dim(), parity.Dim(),
			flip.Dim(), heads.Dim(), roundWarm.Dim())
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

// Rank extracts an agent's rank.
func (pr *Protocol) Rank(s uint32) uint32 { return pr.rank.Get(s) }

// RankDone reports whether an agent has finished drawing its rank.
func (pr *Protocol) RankDone(s uint32) bool { return pr.done.On(s) }

// Candidate reports whether an agent is a live candidate.
func (pr *Protocol) Candidate(s uint32) bool { return pr.cand.On(s) }

// ranking is the lottery's protocol-specific module: geometric rank draws
// off the synthetic coin (after a warm-up that lets the parity bits mix),
// the max-rank one-way epidemic, and withdrawal of outranked candidates.
type ranking struct {
	rank, maxSeen, done, cand, warm, roundWarm compose.Field
	maxRank                                    uint32
}

// Fields implements compose.Module. (cand and roundWarm belong to the
// Rounds module's declaration.)
func (m *ranking) Fields() []compose.Field {
	return []compose.Field{m.rank, m.maxSeen, m.done, m.warm}
}

// Deliver implements compose.Module.
func (m *ranking) Deliver(env compose.Env, r, i uint32) (compose.Env, uint32, uint32) {
	switch {
	case m.warm.Get(r) > 0:
		// Warm-up reads let the parity coin mix before ranking.
		r = m.warm.Set(r, m.warm.Get(r)-1)
	case !m.done.On(r):
		// Geometric ranking: count heads until the first tails.
		if env.Coin && m.rank.Get(r) < m.maxRank {
			r = m.rank.Set(r, m.rank.Get(r)+1)
		} else {
			r = m.done.Set(r, 1)
			r = m.roundWarm.Set(r, flipWarmupRounds)
			if rk := m.rank.Get(r); rk > m.maxSeen.Get(r) {
				r = m.maxSeen.Set(r, rk)
			}
		}
	}

	// Max-rank epidemic: adopt the initiator's maxSeen.
	if ms := m.maxSeen.Get(i); ms > m.maxSeen.Get(r) {
		r = m.maxSeen.Set(r, ms)
	}

	// A finished candidate that has heard of a strictly larger rank
	// withdraws.
	if m.cand.On(r) && m.done.On(r) && m.maxSeen.Get(r) > m.rank.Get(r) {
		r = m.cand.Clear(r)
	}
	return env, r, i
}

// Census classes.
const (
	// ClassRanking agents have not finished drawing their rank.
	ClassRanking = iota
	// ClassFollower agents are finished non-candidates.
	ClassFollower
	// ClassCandidate agents are finished live candidates.
	ClassCandidate
	numClasses
)

func (pr *Protocol) classOf(s uint32) uint8 {
	switch {
	case !pr.done.On(s):
		return ClassRanking
	case pr.cand.On(s):
		return ClassCandidate
	default:
		return ClassFollower
	}
}
