package gs18

import (
	"fmt"
	"testing"

	"popelect/internal/junta"
	"popelect/internal/phaseclock"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/syntheticcoin"
)

// legacyProtocol is a frozen copy of the pre-kit (hand-rolled) GS18
// implementation, kept verbatim as the differential-testing reference: the
// compose-kit rebuild must reproduce its transition function bit for bit,
// so replayed traces and whole-run census series stay comparable across the
// refactor. Do not "fix" or modernize this copy — it is the golden
// baseline.
type legacyProtocol struct {
	params Params
	gamma  uint8
	phi    uint8
}

const (
	legacyLevelMask = 0xf
	legacyFlipMask  = 0x3
	legacyWarmMask  = 0x3
)

const (
	legacyFlipNone uint32 = iota
	legacyFlipHeads
	legacyFlipTails
)

func newLegacy(p Params) *legacyProtocol {
	return &legacyProtocol{params: p, gamma: uint8(p.Gamma), phi: uint8(p.Phi)}
}

func (pr *legacyProtocol) level(s uint32) uint8 { return uint8(s >> levelShift & legacyLevelMask) }

func (pr *legacyProtocol) Name() string {
	return fmt.Sprintf("gs18(Γ=%d,Φ=%d)", pr.params.Gamma, pr.params.Phi)
}
func (pr *legacyProtocol) N() int                         { return pr.params.N }
func (pr *legacyProtocol) Init(yield func(uint32, int64)) { yield(0, int64(pr.N())) }

func (pr *legacyProtocol) Delta(r, i uint32) (uint32, uint32) {
	oldPhase := uint8(r & phaseMask)
	iPhase := uint8(i & phaseMask)
	var newPhase uint8
	if pr.level(r) == pr.phi {
		newPhase = phaseclock.JuntaNext(pr.gamma, oldPhase, iPhase)
	} else {
		newPhase = phaseclock.FollowerNext(pr.gamma, oldPhase, iPhase)
	}
	passed := phaseclock.PassedZero(oldPhase, newPhase)
	half := phaseclock.HalfOf(pr.gamma, oldPhase, newPhase)

	nr := r&^uint32(phaseMask) | uint32(newPhase)
	nr ^= parityBit

	if nr&stopBit == 0 {
		oldLevel := pr.level(nr)
		lvl, mode := junta.Next(oldLevel, junta.Advancing, true, pr.level(i), pr.phi)
		nr = nr&^uint32(legacyLevelMask<<levelShift) | uint32(lvl)<<levelShift
		if mode == junta.Stopped {
			nr |= stopBit
		}
		if lvl == pr.phi && oldLevel != pr.phi {
			nr |= candBit
			nr = nr&^uint32(legacyWarmMask<<warmShift) | warmupRounds<<warmShift
		}
	}

	if passed {
		nr &^= uint32(legacyFlipMask << flipShift)
		nr &^= uint32(headsSeenBit)
		if w := nr >> warmShift & legacyWarmMask; w > 0 {
			nr = nr&^uint32(legacyWarmMask<<warmShift) | (w-1)<<warmShift
		}
	}

	if nr&candBit != 0 && half == phaseclock.Early &&
		nr>>flipShift&legacyFlipMask == legacyFlipNone && nr>>warmShift&legacyWarmMask == 0 {
		if syntheticcoin.Read(uint8(i >> 13 & 1)) {
			nr |= legacyFlipHeads << flipShift
			nr |= headsSeenBit
		} else {
			nr |= legacyFlipTails << flipShift
		}
	}

	if half == phaseclock.Late && nr&headsSeenBit == 0 && i&headsSeenBit != 0 {
		nr |= headsSeenBit
		if nr&candBit != 0 && nr>>flipShift&legacyFlipMask == legacyFlipTails {
			nr &^= uint32(candBit)
		}
	}

	ni := i
	if nr&candBit != 0 && i&candBit != 0 {
		if legacyFlipRank(i>>flipShift&legacyFlipMask) > legacyFlipRank(nr>>flipShift&legacyFlipMask) {
			nr &^= uint32(candBit)
		} else {
			ni = i &^ uint32(candBit)
		}
	}
	return nr, ni
}

func legacyFlipRank(f uint32) int {
	switch f {
	case legacyFlipHeads:
		return 2
	case legacyFlipNone:
		return 1
	default:
		return 0
	}
}

func (pr *legacyProtocol) NumClasses() int { return numClasses }

func (pr *legacyProtocol) Class(s uint32) uint8 {
	switch {
	case s&candBit != 0:
		return ClassCandidate
	case s&stopBit == 0 && pr.level(s) < pr.phi:
		return ClassClimbing
	default:
		return ClassFollower
	}
}

func (pr *legacyProtocol) Leader(s uint32) bool { return s&candBit != 0 }

func (pr *legacyProtocol) Stable(counts []int64) bool {
	return counts[ClassCandidate] == 1 && counts[ClassClimbing] == 0
}

func (pr *legacyProtocol) States() []uint32 {
	out := make([]uint32, 0, int(pr.gamma)*int(pr.phi+1)*288)
	for phase := uint32(0); phase < uint32(pr.gamma); phase++ {
		for lvl := uint32(0); lvl <= uint32(pr.phi); lvl++ {
			for _, stop := range [...]uint32{0, stopBit} {
				for _, par := range [...]uint32{0, parityBit} {
					for _, cand := range [...]uint32{0, candBit} {
						for flip := legacyFlipNone; flip <= legacyFlipTails; flip++ {
							for _, heads := range [...]uint32{0, headsSeenBit} {
								for warm := uint32(0); warm <= warmupRounds; warm++ {
									out = append(out, phase|lvl<<levelShift|stop|par|cand|
										flip<<flipShift|heads|warm<<warmShift)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestStatesMatchLegacyEnumeration pins the generated enumeration to the
// hand-rolled one as a set: same size, same states.
func TestStatesMatchLegacyEnumeration(t *testing.T) {
	p := DefaultParams(10000)
	pr := MustNew(p)
	want := newLegacy(p).States()
	got := pr.States()
	if len(got) != len(want) {
		t.Fatalf("generated enumeration has %d states, legacy %d", len(got), len(want))
	}
	set := make(map[uint32]struct{}, len(want))
	for _, s := range want {
		set[s] = struct{}{}
	}
	for _, s := range got {
		if _, ok := set[s]; !ok {
			t.Fatalf("generated state %#x not in the legacy enumeration", s)
		}
		delete(set, s)
	}
	if len(set) != 0 {
		t.Fatalf("%d legacy states missing from the generated enumeration", len(set))
	}
}

// TestDeltaMatchesLegacyOnRandomPairs drives both transition functions over
// a large random sample of enumerated state pairs: the recomposed protocol
// must agree with the frozen pre-kit implementation bit for bit.
func TestDeltaMatchesLegacyOnRandomPairs(t *testing.T) {
	p := DefaultParams(50000)
	pr := MustNew(p)
	legacy := newLegacy(p)
	states := pr.States()
	src := rng.New(2024)
	for k := 0; k < 300_000; k++ {
		r := states[src.Uintn(uint64(len(states)))]
		i := states[src.Uintn(uint64(len(states)))]
		gr, gi := pr.Delta(r, i)
		wr, wi := legacy.Delta(r, i)
		if gr != wr || gi != wi {
			t.Fatalf("Delta(%#x, %#x) = (%#x, %#x), legacy (%#x, %#x)", r, i, gr, gi, wr, wi)
		}
	}
}

// TestGoldenTraceMatchesLegacy replays a dense golden trace across the
// refactor: the recomposed protocol and the frozen legacy implementation
// run the same seed, and their census series (class counts + leader count,
// sampled every 250 interactions) must be byte-identical, down to the same
// stabilization step.
func TestGoldenTraceMatchesLegacy(t *testing.T) {
	p := DefaultParams(400)
	newRun := sim.NewRunner(MustNew(p), rng.New(77))
	legacyRun := sim.NewRunner(newLegacy(p), rng.New(77))

	type snapshot struct {
		counts  []int64
		leaders int
	}
	series := func(r interface {
		Counts() []int64
		Leaders() int
	}) func() snapshot {
		return func() snapshot {
			return snapshot{counts: append([]int64(nil), r.Counts()...), leaders: r.Leaders()}
		}
	}
	var newSnaps, legacySnaps []snapshot
	const every = 250
	snapNew, snapLegacy := series(newRun), series(legacyRun)
	newRun.AddObserver(func(uint64, []uint32) { newSnaps = append(newSnaps, snapNew()) }, every)
	legacyRun.AddObserver(func(uint64, []uint32) { legacySnaps = append(legacySnaps, snapLegacy()) }, every)

	resNew := newRun.Run()
	resLegacy := legacyRun.Run()
	if !resNew.Converged || !resLegacy.Converged {
		t.Fatalf("convergence: new %+v, legacy %+v", resNew, resLegacy)
	}
	if resNew.Interactions != resLegacy.Interactions || resNew.LeaderID != resLegacy.LeaderID {
		t.Fatalf("runs diverged: new (%d interactions, leader %d), legacy (%d, %d)",
			resNew.Interactions, resNew.LeaderID, resLegacy.Interactions, resLegacy.LeaderID)
	}
	if len(newSnaps) != len(legacySnaps) {
		t.Fatalf("census series lengths differ: %d vs %d", len(newSnaps), len(legacySnaps))
	}
	for k := range newSnaps {
		if newSnaps[k].leaders != legacySnaps[k].leaders {
			t.Fatalf("sample %d: leader count %d vs legacy %d", k, newSnaps[k].leaders, legacySnaps[k].leaders)
		}
		for c := range newSnaps[k].counts {
			if newSnaps[k].counts[c] != legacySnaps[k].counts[c] {
				t.Fatalf("sample %d class %d: census %d vs legacy %d",
					k, c, newSnaps[k].counts[c], legacySnaps[k].counts[c])
			}
		}
	}
}

// TestCountsBackendMatchesLegacyAtScale is the stabilization-time
// differential pin at n = 10⁵ on the counts backend (exact per-interaction
// mode at this size): with identical seeds the recomposed protocol must
// reproduce the frozen implementation's runs interaction for interaction —
// the two stabilization-time distributions are not merely KS-consistent
// but pointwise equal.
func TestCountsBackendMatchesLegacyAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("2×2 counts trials at n=10⁵ (~30s on one core)")
	}
	const n = 100_000
	const trials = 2
	p := DefaultParams(n)
	newRes, err := sim.RunTrials(
		func(int) sim.Protocol { return MustNew(p) },
		sim.TrialConfig{Trials: trials, Seed: 99, Backend: sim.BackendCounts})
	if err != nil {
		t.Fatal(err)
	}
	legacyRes, err := sim.RunTrials(
		func(int) sim.Protocol { return newLegacy(p) },
		sim.TrialConfig{Trials: trials, Seed: 99, Backend: sim.BackendCounts})
	if err != nil {
		t.Fatal(err)
	}
	for k := range newRes {
		a, b := newRes[k], legacyRes[k]
		if !a.Converged || a.Leaders != 1 {
			t.Fatalf("trial %d: %+v", k, a)
		}
		if a.Interactions != b.Interactions || a.Leaders != b.Leaders {
			t.Fatalf("trial %d diverged: new %d interactions, legacy %d", k, a.Interactions, b.Interactions)
		}
	}
}
