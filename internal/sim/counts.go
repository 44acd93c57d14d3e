package sim

import (
	"fmt"
	"math"
	"slices"

	"popelect/internal/pairtab"
	"popelect/internal/rng"
)

// CountsEngine is the "counts" simulation backend: it represents the
// population as a state→count multiset instead of a per-agent array.
// Because agents are anonymous and transitions depend only on states, the
// census determines the process completely, so the uniform random scheduler
// can be simulated on counts alone — and, crucially, in batches.
//
// A batch of ℓ interactions over pairwise-distinct agents is advanced with
// O(occupied states) aggregated random draws instead of O(ℓ) individual
// ones: the responder states of the batch follow a multivariate
// hypergeometric split of the census (a chain of rng.Hypergeometric draws),
// the initiators follow the same law on the remaining agents, and the
// random pairing between them is sampled per responder class — via an
// rng.Alias category sampler over the initiator pool for small classes, and
// hypergeometric chains for large ones. Interaction pairs within such a
// batch touch disjoint agents, so their transitions commute and the whole
// batch collapses into census increments weighted by pair-class counts.
//
// The batch law differs from the sequential scheduler in that agents never
// interact twice within one batch (true collisions are Θ(ℓ²/n) per batch)
// and the census is frozen for the batch's duration, which biases
// stabilization times upward — measured at ≈10% on GS18 with fixed ℓ = n/8
// batches, ≈30% at the maximal ℓ = n/2 (it also suppresses the heavy upper
// tail the sequential scheduler produces in the slow-backup regime). The
// default Policy therefore tiers by population size: below ExactMaxN it
// advances one interaction at a time (the dense scheduler's law exactly —
// the regime the cross-backend equivalence tests pin); up to
// AutoAdaptiveMaxN it bounds each batch adaptively so that no state's
// expected count drifts more than an ε fraction per batch (BatchAdaptive),
// keeping bulk-phase batches long and shrinking them through the volatile
// endgame; and beyond that it trades the remaining fidelity for fixed n/8
// throughput (see BatchPolicy and AutoAdaptiveMaxN — with the derived
// Γ(n) phase clocks this last tier is a speed preference, not a
// correctness crutch).
//
// A CountsEngine is single-goroutine from the caller's perspective: its
// methods must not be called concurrently. With Workers > 1 runBatch fans
// the sampling work of large batches out over short-lived shard goroutines
// internally (see counts_parallel.go), joining them before returning.
type CountsEngine struct {
	// unitLoop drives Run/RunSteps and owns the step counter, population
	// size, budget, probes, checkpoints and perturbation (see unit.go); the
	// counts engine's scheduling units are batches and exact chunks.
	unitLoop

	proto Enumerable

	// Workers caps the number of sampling shards a batch may fan out to.
	// 0 or 1 keeps the historical serial path. The determinism contract:
	// for a fixed Workers value, runs are byte-identical regardless of
	// the physical core count (shard s always draws from the same
	// src.Split(s) stream and results merge in fixed shard order);
	// different Workers values consume randomness in different orders and
	// yield different — statistically equivalent — trajectories, exactly
	// like changing the seed. See SetWorkers and the cross-worker
	// equivalence tests.
	Workers int

	// Policy selects the batch scheduling strategy. The zero value is
	// BatchAuto: exact per-interaction simulation below ExactMaxN agents,
	// the drift-bounded adaptive controller (DefaultBatchEps) up to
	// AutoAdaptiveMaxN, fixed n/8 batches beyond.
	Policy BatchPolicy

	// State indexing is lazy: states are assigned dense int32 ids in
	// order of first appearance (initial census, then Delta outputs).
	states   []uint32
	index    map[uint32]int32
	classOf  []uint8
	leaderOf []bool

	pop  []int64 // id → live agent count
	fen  fenwick // prefix-sum tree over pop, for exact-mode sampling
	diff []int64 // id → pending census change within a batch

	// active is the sparse occupied-state list: the ids with pop > 0, in
	// insertion order perturbed by swap-removals, with activePos the
	// inverse map (id → position in active, −1 if absent). bump maintains
	// it in O(1), so batch setup iterates occupied states directly instead
	// of scanning the dense pop table — the scan is O(discovered states),
	// which for wide-census protocols (the lottery's rank payloads) is
	// orders of magnitude above the occupied count.
	active    []int32
	activePos []int32

	classCounts []int64
	leaders     int64

	// delta memoizes Delta on id pairs: (a, b) → a'<<32|b'. Its stride
	// is capped at stateBound (see pairtab); a map lookup per interaction
	// pair class is a measurable fraction of batch time otherwise.
	delta pairtab.Table

	// stateBound is len(proto.States()), the enumeration's upper bound on
	// how many ids can ever be assigned (computed once at construction).
	stateBound int

	// adaptLen is the adaptive controller's next batch length, derived
	// from the previous batch's realized per-state census drift (0 = not
	// yet initialized; see updateAdaptive).
	adaptLen uint64

	// Per-batch scratch, reused across batches. occ is the batch's sorted
	// occupied layout.
	occ      []int32
	resp     []int64
	pool     []int64
	poolInit []int64
	touched  []int32
	snapPop  []int64 // census snapshot for exact-chunk drift measurement

	// aliasTab is the proposal table of takeOne, rebuilt in place over the
	// weight scratch aliasW by each batch that draws through it: the
	// small-row pairing and the biased path. Nothing in it outlives the
	// batch that built it.
	aliasTab rng.Alias
	aliasW   []float64

	// shards is the worker-pool scratch of the parallel batch path.
	shards []countsShard

	// effWorkers is the widest batch fan-out actually used since Reset
	// (1 = every batch sampled serially); see EffectiveWorkers.
	effWorkers int

	// enumIdx is the lazily built state → States()-index map of the
	// snapshot codec, and enumStates the lazily built state enumeration for
	// perturbation scrambles.
	enumIdx    map[uint32]int32
	enumStates []uint32

	// disableReactive keeps the exact walker disengaged: it steps every
	// interaction plainly, with no silent-step skipping (see reactive.go).
	// The differential law tests compare this reference against the
	// engaging walker; it is not otherwise useful — the skip is
	// distribution-exact.
	disableReactive bool

	// occVer counts occupancy transitions (states entering or leaving the
	// active list). It versions the reactive layer's partner lists, which
	// are derived from the occupied *set*, so they rebuild lazily exactly
	// when membership changes.
	occVer uint64

	// react is the reactive-pair layer: silent-step skipping in exact
	// mode. See reactive.go for the structure and the maintenance law.
	react reactState
}

// ExactMaxN is the population size below which the counts backend defaults
// to exact per-interaction simulation instead of batching. Exact mode
// reproduces the dense scheduler's distribution precisely; batching
// approximates it (agents interact at most once per batch).
const ExactMaxN = 1 << 17

// smallRowMax bounds the responder-class batch share drawn initiator by
// initiator through the alias sampler; larger classes use a hypergeometric
// chain over the whole initiator pool instead.
const smallRowMax = 64

// NewCountsEngine creates a counts engine for proto. The protocol must have
// a finite state space (see Enumerable); population size must be at least 2.
func NewCountsEngine(proto Enumerable, src *rng.Source) *CountsEngine {
	n := proto.N()
	if n < 2 {
		panic(fmt.Sprintf("sim: population size %d < 2", n))
	}
	e := &CountsEngine{proto: proto}
	e.unitLoop = newUnitLoop(e, ckptKindCounts, proto, src)
	e.stateBound = len(proto.States())
	e.Reset()
	return e
}

// Reset reinitializes the census to the protocol's initial configuration,
// clearing all counters. The PRNG is not reseeded.
func (e *CountsEngine) Reset() {
	e.resetLoop()
	e.states = e.states[:0]
	e.index = make(map[uint32]int32)
	e.classOf = e.classOf[:0]
	e.leaderOf = e.leaderOf[:0]
	e.pop = e.pop[:0]
	e.diff = e.diff[:0]
	e.active = e.active[:0]
	e.activePos = e.activePos[:0]
	e.delta.Reset(e.stateBound)
	e.adaptLen = 0
	e.classCounts = make([]int64, e.proto.NumClasses())
	e.leaders = 0
	e.effWorkers = 0
	e.occVer = 0
	e.reactInvalidate()
	// One index lookup per initial run. Runs are added in agent order, so
	// ids are assigned in order of first appearance.
	e.init.runs(func(s uint32, start, end int64) { e.addInitRun(s, end-start) })
	e.rebuildFenwick()
	// Rebuild the active list in id order (the init runs bumped pop
	// directly, bypassing the incremental maintenance).
	e.active = e.active[:0]
	for id := range e.activePos {
		e.activePos[id] = -1
	}
	for id, c := range e.pop {
		if c > 0 {
			e.activePos[id] = int32(len(e.active))
			e.active = append(e.active, int32(id))
		}
	}
}

// addInitRun adds c agents in state s to the initial census.
func (e *CountsEngine) addInitRun(s uint32, c int64) {
	id := e.indexOf(s)
	e.pop[id] += c
	e.classCounts[e.classOf[id]] += c
	if e.leaderOf[id] {
		e.leaders += c
	}
}

// indexOf returns the dense id for state s, assigning the next free id on
// first sight.
func (e *CountsEngine) indexOf(s uint32) int32 {
	if id, ok := e.index[s]; ok {
		return id
	}
	id := int32(len(e.states))
	e.states = append(e.states, s)
	e.index[s] = id
	e.classOf = append(e.classOf, e.proto.Class(s))
	e.leaderOf = append(e.leaderOf, e.proto.Leader(s))
	e.pop = append(e.pop, 0)
	e.diff = append(e.diff, 0)
	e.activePos = append(e.activePos, -1)
	if len(e.states) > e.fen.cap {
		e.rebuildFenwick()
	}
	e.delta.Grow(len(e.states))
	return id
}

func (e *CountsEngine) rebuildFenwick() {
	e.fen.init(len(e.states) + 16)
	for id, c := range e.pop {
		if c != 0 {
			e.fen.add(int32(id), c)
		}
	}
}

// deltaIDs applies the transition function to an ordered id pair, indexing
// any newly discovered successor states.
func (e *CountsEngine) deltaIDs(a, b int32) (int32, int32) {
	if v, ok := e.delta.Get(a, b); ok {
		return int32(v >> 32), int32(v)
	}
	na, nb := e.proto.Delta(e.states[a], e.states[b])
	a2, b2 := e.indexOf(na), e.indexOf(nb)
	e.delta.Put(a, b, uint64(uint32(a2))<<32|uint64(uint32(b2)))
	return a2, b2
}

// deltaLookup resolves a memoized transition without mutating the memo —
// the read-only form the batch shards use concurrently. It reports false
// for pairs not yet memoized; only the main goroutine may resolve those
// (deltaIDs discovers and indexes successor states).
func (e *CountsEngine) deltaLookup(a, b int32) (int32, int32, bool) {
	v, ok := e.delta.Get(a, b)
	return int32(v >> 32), int32(v), ok
}

// Counts implements Engine: the live per-class census. Callers must treat
// it as read-only.
func (e *CountsEngine) Counts() []int64 { return e.classCounts }

// Leaders implements Engine.
func (e *CountsEngine) Leaders() int { return int(e.leaders) }

// DistinctStates returns the number of distinct agent states observed since
// the last Reset. The counts backend tracks this inherently.
func (e *CountsEngine) DistinctStates() int { return len(e.states) }

// VisitStates calls f for every state with a nonzero live count, in no
// particular order (the active list's).
func (e *CountsEngine) VisitStates(f func(s uint32, count int64)) {
	for _, id := range e.active {
		f(e.states[id], e.pop[id])
	}
}

// view is the engine's census view for the unit loop (Census, probes),
// which reads the live census directly (free of charge — the census is the
// engine's native representation).
func (e *CountsEngine) view() CensusView { return countsView{e: e, step: e.step} }

func (e *CountsEngine) stable() bool { return e.proto.Stable(e.classCounts) }

// countsView adapts the counts engine to CensusView.
type countsView struct {
	e    *CountsEngine
	step uint64
}

func (v countsView) Step() uint64                              { return v.step }
func (v countsView) N() int                                    { return v.e.n }
func (v countsView) Classes() []int64                          { return v.e.classCounts }
func (v countsView) Leaders() int                              { return int(v.e.leaders) }
func (v countsView) Occupied() int                             { return len(v.e.active) }
func (v countsView) VisitStates(f func(s uint32, count int64)) { v.e.VisitStates(f) }

func (e *CountsEngine) bump(id int32, d int64) {
	c := e.pop[id] + d
	if c < 0 {
		panic(fmt.Sprintf("sim: counts backend drove state %d census negative", id))
	}
	if c == 0 {
		if e.pop[id] != 0 {
			// Swap-remove id from the active list.
			pos := e.activePos[id]
			last := e.active[len(e.active)-1]
			e.active[pos] = last
			e.activePos[last] = pos
			e.active = e.active[:len(e.active)-1]
			e.activePos[id] = -1
			e.occVer++
		}
	} else if e.pop[id] == 0 {
		e.activePos[id] = int32(len(e.active))
		e.active = append(e.active, id)
		e.occVer++
	}
	e.pop[id] = c
	e.fen.add(id, d)
	e.classCounts[e.classOf[id]] += d
	if e.leaderOf[id] {
		e.leaders += d
	}
	if e.react.valid {
		e.reactUpdate(id, d)
	}
}

// Step implements Engine: one exact interaction, sampled on counts with the
// same law as the dense scheduler (responder uniform over agents, initiator
// uniform over the rest). The census units form an implicit agent indexing,
// so "a distinct initiator" is a redraw of the responder's unit index —
// cheaper than temporarily removing the responder from the prefix tree.
func (e *CountsEngine) Step() bool {
	u, a := e.drawUnit(math.MaxUint64) // no unit equals MaxUint64
	_, b := e.drawUnit(u)
	e.step++
	return e.interact(a, b)
}

// drawUnit draws one census unit (an implicit agent index) other than
// exclude and returns it with its state id. Under a bias perturbation the
// unit is accepted proportionally to its state's class weight — the
// counts-backend mirror of the dense runner's biasedPair; with all-equal
// weights the acceptance test short-circuits and both law and randomness
// consumption degenerate to the uniform draw exactly.
func (e *CountsEngine) drawUnit(exclude uint64) (uint64, int32) {
	for {
		u := e.src.Uintn(uint64(e.n))
		if u == exclude {
			continue
		}
		id := e.fen.find(u)
		if e.pert.bias == nil {
			return u, id
		}
		w := e.pert.bias[e.classOf[id]]
		if w == e.pert.biasMax || e.src.Float64()*e.pert.biasMax < w {
			return u, id
		}
	}
}

// interact commits one exact interaction of a responder in state a with an
// initiator in state b, whose step the caller has already counted, and
// fires the probes due at e.step. It reports whether the census changed.
func (e *CountsEngine) interact(a, b int32) bool {
	a2, b2 := e.deltaIDs(a, b)
	changed := a2 != a || b2 != b
	if changed {
		e.moveOne(a, a2)
		e.moveOne(b, b2)
	}
	if e.probes.due(e.step) {
		e.fireProbes()
	}
	return changed
}

// moveOne transfers one agent between states, skipping identity moves.
func (e *CountsEngine) moveOne(from, to int32) {
	if from != to {
		e.bump(from, -1)
		e.bump(to, 1)
	}
}

// ApplyPair advances the engine by one interaction with the given
// (responder, initiator) states, bypassing the scheduler. It is the replay
// hook used by the cross-backend equivalence tests: feeding the counts
// engine the state pairs recorded from a dense run must reproduce the dense
// census trajectory exactly. It panics if the census holds no agent pair in
// the given states.
func (e *CountsEngine) ApplyPair(responder, initiator uint32) bool {
	a := e.indexOf(responder)
	b := e.indexOf(initiator)
	if e.pop[a] == 0 || e.pop[b] == 0 || (a == b && e.pop[a] < 2) {
		panic(fmt.Sprintf("sim: ApplyPair(%v, %v) without live agents", responder, initiator))
	}
	e.reactInvalidate()
	e.step++
	return e.interact(a, b)
}

// Adaptive controller tuning. The controller bounds the expected census
// drift of every state over one batch: large states by an ε fraction of
// their count, and small states by an absolute agent allowance. The
// allowance is two-tier: small leader-bearing states — the protocol's
// output, whose integer dynamics are what the endgame race runs on — may
// drift by at most adaptiveSmallAbs agents per batch, while small
// non-leader states get the looser adaptiveChurnAbs. The looser tier
// matters: protocols carry a long tail of O(1)-count transient states
// (clock boundary states, coin minorities) that fully turn over every
// batch; holding them to a few agents would pin batches two orders of
// magnitude below what bulk fidelity needs, while their absolute effect on
// any interaction rate is O(1/n). Batch lengths grow by at most
// adaptiveGrow per batch through quiescent phases and shrink without limit
// when drift picks up; below adaptiveFloor the engine abandons batching
// and steps exactly in adaptiveFloor-interaction chunks, re-measuring
// drift over each chunk so it can re-enter the batched regime when the
// population calms down.
const (
	adaptiveSmallAbs = 4.0
	adaptiveChurnAbs = 32.0
	adaptiveGrow     = 2
	adaptiveFloor    = 64
)

// resolvedPolicy returns the effective batch policy: an explicit Policy
// wins, and the BatchAuto default resolves to exact stepping below
// ExactMaxN agents and the adaptive controller above.
func (e *CountsEngine) resolvedPolicy() BatchPolicy {
	p := e.Policy
	if p.Mode == BatchAuto {
		switch {
		case e.n < ExactMaxN:
			return BatchPolicy{Mode: BatchExact}
		case e.n <= AutoAdaptiveMaxN:
			p = BatchPolicy{Mode: BatchAdaptive, Eps: p.Eps}
		default:
			// Beyond the validated adaptive tier, auto prefers fixed n/8
			// throughput at a known ≈10% bias (see AutoAdaptiveMaxN).
			p = BatchPolicy{Mode: BatchFixed}
		}
	}
	if p.Mode == BatchFixed && p.Len == 0 {
		p.Len = uint64(e.n) / 8
	}
	if p.Mode == BatchAdaptive && p.Eps <= 0 {
		p.Eps = DefaultBatchEps
	}
	return p
}

// nextAdvance returns the length of the next scheduling unit, at most
// `remaining`, and whether it must be executed as exact per-interaction
// steps instead of one aggregated batch. Batches never cross the next
// probe boundary and never exceed n/2 (a batch cannot involve more than n
// distinct agents).
func (e *CountsEngine) nextAdvance(remaining uint64) (uint64, bool) {
	p := e.resolvedPolicy()
	var l uint64
	switch p.Mode {
	case BatchExact:
		// Exact chunks follow the exact-chunk rules of unit.go. When
		// silent-step skipping engages, a checkpoint split additionally
		// redraws any in-flight geometric skip at the boundary —
		// distribution-exact by memorylessness, and replayed identically on
		// resume because boundaries are absolute cadence multiples (see
		// reactive.go).
		return e.exactLen(max(remaining, 1)), true
	case BatchFixed:
		l = p.Len
	case BatchAdaptive:
		if e.adaptLen == 0 {
			// No drift history yet: start conservatively and let the
			// geometric growth find the drift bound within a few batches.
			e.adaptLen = max(adaptiveFloor, uint64(e.n)/4096)
		}
		l = e.adaptLen
		if l < adaptiveFloor {
			// Drift bound below the floor: step exactly for one floor-sized
			// chunk (measuring drift over it, so the controller can grow
			// back into the batched regime).
			return e.pertLen(min(adaptiveFloor, max(remaining, 1))), true
		}
	}
	l = min(l, uint64(e.n)/2, remaining)
	if e.pert.bias != nil {
		// Biased batches deplete their pool by rejection against the
		// batch-start counts (see sampleBatchBiased); cap the batch at n/3
		// so the acceptance rate stays above 1/3.
		l = min(l, uint64(e.n)/3)
	}
	l = e.unitLen(l)
	return l, l == 1
}

// adaptiveOn reports whether the drift-bounded controller governs batch
// lengths (and therefore whether drift must be measured).
func (e *CountsEngine) adaptiveOn() bool {
	return e.resolvedPolicy().Mode == BatchAdaptive
}

// AdaptiveBatchLen exposes the adaptive controller's current batch-length
// choice, for diagnostics and tuning (0 until the first batch under an
// adaptive policy).
func (e *CountsEngine) AdaptiveBatchLen() uint64 { return e.adaptLen }

// SetBatchPolicy implements BatchConfigurable: it sets Policy, letting
// callers that hold an Engine configure batch scheduling.
func (e *CountsEngine) SetBatchPolicy(p BatchPolicy) { e.Policy = p }

// SetWorkers implements WorkerConfigurable: it sets Workers, the batch
// sampling shard count (0 or 1 = serial; see the Workers field for the
// determinism contract).
func (e *CountsEngine) SetWorkers(w int) { e.Workers = w }

// EffectiveWorkers implements WorkerReporter: the widest batch fan-out any
// batch actually used since the last Reset. batchShards clamps the
// requested Workers to occupied/2 (and drops short batches or narrow
// censuses to serial entirely), so the effective count can be well below
// the configured one — capacity tables should report this value, not the
// request. Returns 1 until a batch has run.
func (e *CountsEngine) EffectiveWorkers() int {
	if e.effWorkers < 1 {
		return 1
	}
	return e.effWorkers
}

// SetPerturbation implements Engine: p is applied at batch and
// exact-chunk boundaries, the counts backend's scheduling units (the
// checkpoint hook discipline — the batch sampling law inside a unit is
// untouched). Must be called before Run, and before Restore when resuming
// a perturbed checkpoint; the zero Perturbation detaches.
func (e *CountsEngine) SetPerturbation(p Perturbation) error {
	e.reactInvalidate()
	return e.attachPert(p, e.proto.NumClasses(), countsTarget{e})
}

// scrambleStates returns the protocol's state enumeration, built lazily —
// the scramble target draws uniform replacement states from it.
func (e *CountsEngine) scrambleStates() []uint32 {
	if e.enumStates == nil {
		e.enumStates = e.proto.States()
	}
	return e.enumStates
}

// countsTarget adapts the counts engine to PerturbTarget. Uniform agent
// choice over an anonymous census is a multivariate hypergeometric row
// draw over the occupied states — the same without-replacement law the
// dense target realizes agent by agent. It must only be used at unit
// boundaries (never mid-batch: bump commits immediately, staged diffs are
// relative to the batch-start census).
type countsTarget struct{ e *CountsEngine }

func (t countsTarget) LiveN() int { return t.e.n }

// removeUniformMVH removes k agents chosen uniformly without replacement
// from the census: one multivariate hypergeometric row over the occupied
// states, drawn as the batch sampler's hyperDraw chain in active-list
// order (the order is serialized in checkpoints, so the draw replays
// identically across resume). Clamps k to the live population; reports how
// many agents were actually removed. Shared by the churn and scramble
// perturbation targets.
func (e *CountsEngine) removeUniformMVH(src *rng.Source, k int64) int64 {
	if k > int64(e.n) {
		k = int64(e.n)
	}
	if k <= 0 {
		return 0
	}
	e.reactInvalidate()
	rem, need := int64(e.n), k
	// Walk a copy: bump swap-removes emptied states from e.active.
	for _, id := range slices.Clone(e.active) {
		c := e.pop[id]
		if x := hyperDraw(src, c, rem-c, need); x > 0 {
			e.bump(id, -x)
			need -= x
		}
		rem -= c
	}
	return k
}

func (t countsTarget) RemoveUniform(src *rng.Source, k int64) {
	e := t.e
	e.n -= int(e.removeUniformMVH(src, k))
}

func (t countsTarget) AddAgents(src *rng.Source, k int64) {
	e := t.e
	for j := int64(0); j < k; j++ {
		e.censusAdd(e.joinState(src), 1)
	}
	e.n += int(k)
}

func (t countsTarget) ScrambleUniform(src *rng.Source, k int64) {
	e := t.e
	k = e.removeUniformMVH(src, k)
	sts := e.scrambleStates()
	for j := int64(0); j < k; j++ {
		e.censusAdd(sts[src.Uintn(uint64(len(sts)))], 1)
	}
}

// censusAdd moves k agents into (k > 0) or out of (k < 0) state s,
// maintaining every census structure (fenwick, active list, class counts,
// leader count) and assigning s an id on first sight. It is the
// perturbation target's census hook; it must not be called during a batch
// (staged diffs are relative to the batch-start census).
func (e *CountsEngine) censusAdd(s uint32, k int64) {
	if k == 0 {
		return
	}
	e.reactInvalidate()
	e.bump(e.indexOf(s), k)
}

// updateAdaptive recomputes the controller's next batch length from the
// drift record of the last scheduling unit of l interactions: for every id
// in e.touched, e.diff holds the census change between the unit's two
// endpoint censuses and e.pop the endpoint it was measured from. Drift is
// symmetric in the endpoints, so a record taken from either end yields the
// same length. The next length is the largest ℓ for which every state's
// extrapolated drift stays inside its allowance — an ε fraction of the
// state's count, floored at adaptiveSmallAbs agents for small states —
// clamped to geometric growth (×adaptiveGrow) on the way up and unclamped
// on the way down.
func (e *CountsEngine) updateAdaptive(l uint64, eps float64) {
	if l == 0 {
		return
	}
	bound := math.Inf(1)
	for _, id := range e.touched {
		d := e.diff[id]
		if d == 0 {
			continue
		}
		// Credit a state with the larger of its endpoint counts so states
		// growing from zero are bounded by where they ended up, not where
		// they started.
		c := max(e.pop[id], e.pop[id]+d)
		if d < 0 {
			d = -d
		}
		floor := adaptiveChurnAbs
		if e.leaderOf[id] {
			floor = adaptiveSmallAbs
		}
		allowed := eps * float64(c)
		if allowed < floor {
			allowed = floor
		}
		if m := allowed * float64(l) / float64(d); m < bound {
			bound = m
		}
	}
	next := l * adaptiveGrow
	if bound < float64(next) {
		next = uint64(bound)
	}
	if lim := uint64(e.n) / 2; next > lim {
		next = lim
	}
	if next < 1 {
		next = 1
	}
	e.adaptLen = next
}

// exactChunk advances up to l exact interactions through the walker of
// reactive.go, which steps plainly and, where the chunk may skip, switches
// to analytic silent-step skipping once a long run of silent steps shows
// the reactive pair mass has collapsed. With checkStable it re-evaluates
// the stability predicate after every census-changing step (Stable is
// absorbing on census classes, so unchanged steps cannot flip it) and
// stops at the exact interaction where the protocol stabilizes, returning
// true. Under the adaptive policy the chunk's census drift is measured
// against a snapshot so the controller can re-enter the batched regime.
func (e *CountsEngine) exactChunk(l uint64, checkStable bool) bool {
	adaptive := e.adaptiveOn()
	if adaptive {
		e.snapPop = append(e.snapPop[:0], e.pop...)
	}
	start := e.step
	converged := e.exactChunkSkip(start+l, checkStable)
	if adaptive {
		// Record the drift from the chunk's end: diff = start − end
		// against the live (end) census.
		for id, c := range e.pop {
			var old int64
			if id < len(e.snapPop) {
				old = e.snapPop[id]
			}
			if d := old - c; d != 0 {
				e.diff[id] = d
				e.touched = append(e.touched, int32(id))
			}
		}
		e.updateAdaptive(e.step-start, e.resolvedPolicy().Eps)
		for _, id := range e.touched {
			e.diff[id] = 0
		}
		e.touched = e.touched[:0]
	}
	return converged
}

// hyperDraw draws from Hypergeometric(good, bad, sample) on an explicit
// source: the serial chains pass the engine's stream, the in-batch
// workers their own (see counts_parallel.go). Every draw is exact, so a
// batch is a true multivariate hypergeometric split.
func hyperDraw(src *rng.Source, good, bad, sample int64) int64 {
	return clampHyper(src.Hypergeometric(good, bad, sample), good, bad, sample)
}

// clampHyper bounds a hypergeometric draw to its exact support, guarding
// the census splits against any floating-point edge case in the sampler.
func clampHyper(k, good, bad, sample int64) int64 {
	if lo := sample - bad; k < lo {
		k = lo
	}
	if k < 0 {
		k = 0
	}
	if k > good {
		k = good
	}
	if k > sample {
		k = sample
	}
	return k
}

// runBatch advances l interactions (2·l ≤ n) in one aggregated draw,
// fanning the sampling over shard goroutines when Workers permits (see
// counts_parallel.go).
func (e *CountsEngine) runBatch(l uint64) {
	// The skip layer's structures are exact-mode state; any batch commit
	// would invalidate them anyway, so drop them up front and let the next
	// exact chunk rebuild lazily.
	e.reactInvalidate()
	// Occupied state positions, taken from the sparse active list and
	// sorted afresh every batch. occ, and every per-position slice below,
	// is indexed by position in occ, not by state id. Largest classes
	// first (ties by id, a total order, so the layout is a function of the
	// census alone): the pairing chains below scan columns in this order,
	// so a row's draw budget is exhausted after the few big columns and
	// the long tail of near-empty classes is rarely visited at all.
	occ := append(e.occ[:0], e.active...)
	slices.SortFunc(occ, func(a, b int32) int {
		pa, pb := e.pop[a], e.pop[b]
		if pa != pb {
			if pa > pb {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	e.occ = occ

	if e.pert.bias != nil {
		e.sampleBatchBiased(l)
	} else if w := e.batchShards(l, len(occ)); w > 1 {
		if w > e.effWorkers {
			e.effWorkers = w
		}
		e.sampleBatchSharded(l, w)
	} else {
		e.sampleBatchSerial(l)
	}

	// Feed the realized per-state drift to the adaptive controller while
	// e.pop still holds the batch-start census.
	if p := e.resolvedPolicy(); p.Mode == BatchAdaptive {
		e.updateAdaptive(l, p.Eps)
	}

	// Commit the staged census changes.
	for _, id := range e.touched {
		d := e.diff[id]
		if d == 0 {
			continue
		}
		e.diff[id] = 0
		e.bump(id, d)
	}
	e.touched = e.touched[:0]
	e.step += l
}

// sampleBatchSerial draws one batch of l interactions on the caller's
// goroutine and stages its census deltas (the historical single-stream
// path; Workers ≤ 1 and small batches come through here).
func (e *CountsEngine) sampleBatchSerial(l uint64) {
	occ := e.occ

	// Responder split: a multivariate hypergeometric draw of l agents
	// from the census, class by class.
	resp := ensureLen(&e.resp, len(occ))
	rem := int64(e.n)
	need := int64(l)
	for j, id := range occ {
		c := e.pop[id]
		var k int64
		if need > 0 {
			k = hyperDraw(e.src, c, rem-c, need)
		}
		resp[j] = k
		need -= k
		rem -= c
	}

	// Initiator pool: the remaining agents. poolInit keeps the batch-start
	// pool, the alias rows' proposal weights.
	pool := ensureLen(&e.pool, len(occ))
	poolInit := ensureLen(&e.poolInit, len(occ))
	poolTotal := int64(e.n) - int64(l)
	for j, id := range occ {
		pool[j] = e.pop[id] - resp[j]
		poolInit[j] = pool[j]
	}

	// The alias rows propose from the batch-start pool and correct by
	// rejection, which degenerates once most of the pool is consumed; for
	// long batches every row goes through the hypergeometric chains, which
	// handle pool exhaustion exactly. The table is built at the batch's
	// first small row (batches whose rows are all large never need it).
	smallRow := int64(smallRowMax)
	if int64(l) > int64(e.n)/3 {
		smallRow = 0
	}
	aliasReady := false

	// Pair each responder class with its initiators. The pairing is
	// exchangeable, so processing classes in a fixed order is unbiased.
	for j, id := range occ {
		k := resp[j]
		if k == 0 {
			continue
		}
		if k <= smallRow {
			if !aliasReady {
				w := ensureLen(&e.aliasW, len(occ))
				for j, p := range poolInit {
					w[j] = float64(p)
				}
				if err := e.aliasTab.Rebuild(w); err != nil {
					panic(err)
				}
				aliasReady = true
			}
			// Draw k initiators one by one, without replacement.
			for t := int64(0); t < k; t++ {
				b := e.takeOne(poolInit, pool)
				poolTotal--
				a2, b2 := e.deltaIDs(id, occ[b])
				e.stage(id, occ[b], a2, b2, 1)
			}
			continue
		}
		// Large class: split its k initiators over the pool with a
		// hypergeometric chain.
		remPool := poolTotal
		d := k
		for b := range occ {
			if d == 0 {
				break
			}
			pb := pool[b]
			if pb == 0 {
				continue
			}
			kb := hyperDraw(e.src, pb, remPool-pb, d)
			if kb > 0 {
				pool[b] = pb - kb
				d -= kb
				a2, b2 := e.deltaIDs(id, occ[b])
				e.stage(id, occ[b], a2, b2, kb)
			}
			remPool -= pb
		}
		poolTotal -= k
	}
}

// sampleBatchBiased draws one batch of l interactions under a bias
// perturbation: each interaction's responder and initiator are drawn in
// sequence by takeOne from an alias table over count×weight built at
// batch start. Sequential weighted sampling without replacement over 2·l
// distinct agents is the biased batch law; with all-equal weights it
// reduces to the unbiased batch law (a uniformly random ordered 2l-tuple
// of distinct agents, whose responder set follows the same MVH split the
// aggregated path realizes). nextAdvance caps biased
// batches at n/3 interactions so the acceptance rate stays above 1/3;
// the path is serial — per-interaction role draws cannot reuse the shard
// fan-out's aggregated chains.
func (e *CountsEngine) sampleBatchBiased(l uint64) {
	occ := e.occ
	start := ensureLen(&e.poolInit, len(occ))
	pool := ensureLen(&e.pool, len(occ))
	w := ensureLen(&e.aliasW, len(occ))
	for j, id := range occ {
		start[j] = e.pop[id]
		pool[j] = start[j]
		w[j] = float64(start[j]) * e.pert.bias[e.classOf[id]]
	}
	if err := e.aliasTab.Rebuild(w); err != nil {
		panic(err)
	}
	for t := uint64(0); t < l; t++ {
		a := e.takeOne(start, pool)
		b := e.takeOne(start, pool)
		a2, b2 := e.deltaIDs(occ[a], occ[b])
		e.stage(occ[a], occ[b], a2, b2, 1)
	}
}

// takeOne draws one agent without replacement from a pool that held
// start[j] agents of occ position j at batch start and holds pool[j] now,
// decrements its pool entry and returns j. e.aliasTab must be built over
// start[j] times a per-position weight: a proposal j is accepted with
// probability pool[j]/start[j], which corrects for depletion exactly, and
// the weight cancels.
func (e *CountsEngine) takeOne(start, pool []int64) int {
	for {
		j := e.aliasTab.Sample(e.src)
		if pool[j] > 0 && float64(start[j])*e.src.Float64() < float64(pool[j]) {
			pool[j]--
			return j
		}
	}
}

// stage records the census effect of k interactions of one pair class
// without committing it: within a batch all pairs touch distinct agents, so
// effects are computed against the batch-start census and applied at once.
func (e *CountsEngine) stage(a, b, a2, b2 int32, k int64) {
	e.stageOne(a, -k)
	e.stageOne(b, -k)
	e.stageOne(a2, k)
	e.stageOne(b2, k)
}

func (e *CountsEngine) stageOne(id int32, d int64) {
	if e.diff[id] == 0 {
		e.touched = append(e.touched, id)
	}
	e.diff[id] += d
}

// advance implements unitEngine: one batch or exact chunk of at most limit
// interactions (see nextAdvance). Exact chunks test stability after every
// census-changing step; batches at their end.
func (e *CountsEngine) advance(limit uint64, checkStable bool) bool {
	l, exact := e.nextAdvance(limit)
	if exact || e.n < 4 {
		return e.exactChunk(l, checkStable)
	}
	e.runBatch(l)
	if e.probes.due(e.step) {
		e.fireProbes()
	}
	return checkStable && e.proto.Stable(e.classCounts)
}

func (e *CountsEngine) result(converged bool) Result {
	return Result{
		Converged:      converged,
		Interactions:   e.step,
		N:              e.n,
		Leaders:        int(e.leaders),
		LeaderID:       -1, // agents are anonymous in the counts backend
		Counts:         append([]int64(nil), e.classCounts...),
		DistinctStates: len(e.states),
	}
}

// ensureLen grows *s to length n (reusing capacity) and returns it.
func ensureLen[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// fenwick is a binary indexed tree over int64 counts with prefix-sum
// selection, used by the exact per-interaction mode to draw a state
// proportionally to its count in O(log states).
type fenwick struct {
	tree []int64 // 1-indexed; tree[i] covers the range (i − lowbit(i), i]
	cap  int     // power of two ≥ slot count
}

func (f *fenwick) init(n int) {
	c := 1
	for c < n {
		c <<= 1
	}
	f.cap = c
	if cap(f.tree) >= c+1 {
		f.tree = f.tree[:c+1]
		clear(f.tree)
	} else {
		f.tree = make([]int64, c+1)
	}
}

func (f *fenwick) add(i int32, d int64) {
	for j := int(i) + 1; j <= f.cap; j += j & -j {
		f.tree[j] += d
	}
}

// find returns the smallest slot index whose prefix sum exceeds u; with u
// uniform on [0, total) this selects a slot proportionally to its count.
//
// Preconditions: u < total, every slot value is non-negative, and total <
// 2⁶³. The descent is branchless — each level takes its step under a sign
// mask instead of a data-dependent branch the CPU cannot predict — so a
// violated precondition returns a wrong slot rather than failing. The
// descent starts below the root: tree[cap] holds the total, which no
// u < total can step past.
func (f *fenwick) find(u uint64) int32 {
	tree := f.tree
	pos := 0
	rem := int64(u)
	for bit := f.cap >> 1; bit > 0; bit >>= 1 {
		v := tree[pos+bit]
		m := ^((rem - v) >> 63) // all ones iff v <= rem
		pos += bit & int(m)
		rem -= v & m
	}
	return int32(pos)
}
