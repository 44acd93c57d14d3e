package sim

import "math"

// Reactive-pair layer: silent-step skipping in exact mode.
//
// A pair class (a, b) is *silent* when Delta(a, b) = (a, b): sampling it
// leaves the census untouched. Protocols spend wildly different fractions
// of their schedule on silent pairs — a converged one-way epidemic is
// 100% silent, GSU19 idles at ≈2/3 silent, while GS18's parity module
// toggles the responder word on every interaction, so it is 0% silent at
// every point of every run (measured; see DESIGN.md §10). The layer
// therefore self-gates: it only ever pays for itself where silence
// actually dominates, and it is a no-op — identical randomness
// consumption, identical trajectory — on always-reactive protocols. There
// is one exact walker (exactChunkSkip): stepping plainly is its disengaged
// state, and chunks that may not skip (a bias, n > reactMaxN, or the
// skip disabled for the differential tests) simply never engage.
//
// The maintained quantities, for the live census pop[·] over state ids:
//
//	react(a, b) = 1 iff Delta(a, b) ≠ (a, b)           (responder a, initiator b)
//	w[a] = Σ_b react(a, b)·pop[b] − react(a, a)        (reactive initiator units seen by one agent in a)
//	r[a] = pop[a]·w[a]                                 (reactive ordered agent pairs with responder in a)
//	R    = Σ_a r[a]                                    (total reactive ordered distinct-agent pairs)
//
// The scheduler draws an ordered pair of distinct agents uniformly, so
// while the census is unchanged each step is silent i.i.d. with
// probability 1 − R/(n(n−1)). The number of silent steps before the next
// reactive one is Geometric(p = R/(n(n−1))), which the exact-mode walker
// samples analytically (inversion, one uniform) and applies as a batch
// step-counter advance; the reactive interaction itself is then sampled
// directly — responder class a ∝ r[a] via a Fenwick tree over r, then
// initiator b from a's reactive partner list with weight pop[b]
// (pop[a]−1 for b = a), giving the joint law r[a]/R · weight(b)/w[a] =
// (reactive pairs in cell (a,b))/R, exactly the scheduler's law
// conditioned on the step being reactive. Clamping a skip at a probe,
// checkpoint, perturbation, or budget boundary is exact by memorylessness:
// conditioned on the first k steps being silent, the remaining wait is
// again geometric, so the walker simply redraws after the boundary.
//
// Census updates are exactly the non-silent steps, and each one moves one
// agent out of one state and into another (bump(c, d)), under which
//
//	w[a] += d·react(a, c)  for every occupied a,  r[·] and R follow,
//
// an O(occupied) refresh per census-changing step — charged only where
// the structures are live, i.e. where silent steps dominate.
//
// Structures rebuild from the census; checkpoints carry no reactive
// state. Engagement is strictly chunk-local (reactInvalidate at every
// chunk start, batch, perturbation, restore), so a resumed run — which
// restarts its chunk at the same boundary the interrupted run's chunk
// started — re-earns engagement at the identical step and rebuilds
// structures with identical content, keeping resume byte-identical.

const (
	// reactEngageRun is the number of consecutive silent steps the
	// disengaged walker must observe before the skip layer engages. At
	// silent fraction q the chance of a length-64 run is q^64: negligible
	// for any protocol the skip cannot help (q ≤ 0.95 → < 4%), near-certain
	// within a few hundred steps once silence truly dominates.
	reactEngageRun = 64

	// reactDisengageInv disengages the skip loop when the reactive
	// fraction R/(n(n−1)) exceeds 1/reactDisengageInv: expected skip
	// lengths below ~16 no longer amortize the per-reactive-step
	// O(occupied) maintenance. Each disengagement within a chunk
	// quadruples the next engagement run requirement, bounding
	// oscillation on protocols that hover near the threshold.
	reactDisengageInv = 16

	// reactMaxN gates the layer by population size: pair masses are held
	// in int64, so n(n−1) must fit with headroom (n ≤ 2³⁰ keeps every
	// product below 2⁶⁰). Exact mode is mandatory only below 2¹⁷ and the
	// adaptive fallback tier ends at 2²⁷, so the gate is never binding in
	// practice.
	reactMaxN = 1 << 30

	// reactMaxOcc gates engagement by occupied-state count: the initial
	// build probes all occupied ordered pairs (O(occ²) memoized delta
	// lookups), and each census-changing step refreshes O(occ) masses.
	// Protocols with wide censuses (the lottery's rank payloads) never
	// engage — they are also the measured 100%-reactive ones.
	reactMaxOcc = 2048
)

// reactState holds the reactive-pair structures. All of it is derived
// state: a pure function of the live census and the protocol's transition
// function, rebuilt on demand and never serialized.
type reactState struct {
	// valid gates the structures below (w, rvals, fen, R, partner lists).
	valid bool

	w     []int64 // id → reactive initiator units for one responder agent in id
	rvals []int64 // id → pop[id]·w[id], the fenwick's current slot values
	fen   fenwick // prefix tree over rvals, for responder selection ∝ r[a]
	R     int64   // Σ rvals — total reactive ordered distinct-agent pairs

	// partners[a] is responder a's reactive partner list — the occupied b
	// with react(a, b), in active-list order (serialized in checkpoints,
	// so rebuilt lists match across resume) — built lazily per responder
	// and stamped with the occVer it was built at.
	partners   [][]int32
	partnerVer []uint64
}

// reactInvalidate drops the exact-mode reactive structures. Cheap (one
// flag); every census mutation outside the skip walker's own bumps —
// batches, perturbation targets, replay, restore, reset —
// calls it, and the walker rebuilds lazily at its next engagement.
func (e *CountsEngine) reactInvalidate() {
	e.react.valid = false
}

// skipEligible reports whether an exact chunk may engage silent-step
// skipping at all: a biased scheduler changes the per-pair law (drawUnit
// keeps its per-step rejection sampling), and the int64 pair-mass gate
// must hold. disableReactive keeps the walker disengaged for the
// differential tests.
func (e *CountsEngine) skipEligible() bool {
	return !e.disableReactive && e.pert.bias == nil && e.n <= reactMaxN
}

// reactivePair reports whether ordered id pair (a, b) is reactive,
// memoizing through the engine's delta table (and discovering successor
// states exactly as a sampled interaction would). Only the engaged
// exact-mode walker uses it — there the skip changes randomness
// consumption anyway, so eager successor discovery is harmless.
func (e *CountsEngine) reactivePair(a, b int32) bool {
	a2, b2 := e.deltaIDs(a, b)
	return a2 != a || b2 != b
}

// growKeep grows s to length n, zero-filling new slots and preserving
// existing content (unlike ensureLen, which reuses scratch capacity
// without preserving it).
func growKeep[T any](s []T, n int) []T {
	for len(s) < n {
		s = append(s, *new(T))
	}
	return s
}

// reactBuild constructs the reactive structures from the live census:
// every occupied ordered pair is probed once (memoized after the first
// build), w/r/R assembled, and the Fenwick tree initialized. O(occ²)
// probes + O(states) tree setup; called once per engagement.
func (e *CountsEngine) reactBuild() {
	rs := &e.react
	m := len(e.states)
	rs.w = growKeep(rs.w[:0], m)
	rs.rvals = growKeep(rs.rvals[:0], m)
	rs.partnerVer = growKeep(rs.partnerVer, m)
	rs.partners = growKeep(rs.partners, m)
	for _, a := range e.active {
		var wa int64
		for _, b := range e.active {
			if e.reactivePair(a, b) {
				wa += e.pop[b]
			}
		}
		if e.reactivePair(a, a) {
			wa--
		}
		rs.w[a] = wa
	}
	// Probing may have discovered (unoccupied) successor states; size the
	// value arrays and tree for them so skip-path bumps can index freely.
	m = len(e.states)
	rs.w = growKeep(rs.w, m)
	rs.rvals = growKeep(rs.rvals, m)
	rs.partnerVer = growKeep(rs.partnerVer, m)
	rs.partners = growKeep(rs.partners, m)
	rs.fen.init(m + 16)
	rs.R = 0
	for _, a := range e.active {
		v := e.pop[a] * rs.w[a]
		rs.rvals[a] = v
		if v != 0 {
			rs.fen.add(a, v)
			rs.R += v
		}
	}
	// Stale partner stamps must not collide with the current occVer.
	for i := range rs.partnerVer {
		rs.partnerVer[i] = ^uint64(0)
	}
	rs.valid = true
}

// reactUpdate refreshes the reactive masses after bump moved d agents
// into (d > 0) or out of (d < 0) state c — the O(occupied) maintenance
// law: w[a] += d·react(a, c) for occupied a, with w[c] recomputed from
// scratch when c enters occupancy (its row was not maintained while it
// was empty). Runs only while the structures are valid, i.e. inside the
// engaged skip walker, whose steps are exactly the census-changing ones.
func (e *CountsEngine) reactUpdate(c int32, d int64) {
	rs := &e.react
	if int(c) >= len(rs.w) || len(e.states) > rs.fen.cap {
		// A successor state beyond the built capacity became live:
		// rebuild wholesale (rare — only on first discovery of a state
		// while engaged).
		e.reactBuild()
		return
	}
	entered := d > 0 && e.pop[c] == d
	if entered {
		var wc int64
		for _, b := range e.active {
			if e.reactivePair(c, b) {
				wc += e.pop[b]
			}
		}
		if e.reactivePair(c, c) {
			wc--
		}
		rs.w[c] = wc
	}
	if len(e.states) > len(rs.w) {
		// Probing discovered successor states; grow the id-indexed arrays
		// (tree capacity was checked above).
		m := len(e.states)
		rs.w = growKeep(rs.w, m)
		rs.rvals = growKeep(rs.rvals, m)
		rs.partnerVer = growKeep(rs.partnerVer, m)
		rs.partners = growKeep(rs.partners, m)
		if m > rs.fen.cap {
			e.reactBuild()
			return
		}
	}
	for _, a := range e.active {
		if a != c || !entered {
			if e.reactivePair(a, c) {
				rs.w[a] += d
			}
		}
		e.reactSetVal(a)
	}
	if e.pop[c] == 0 {
		// c left occupancy: its pair mass is gone (w[c] goes stale and is
		// recomputed if c ever re-enters).
		e.reactSetVal(c)
	}
}

// reactSetVal re-derives r[a] = pop[a]·w[a] and folds the difference into
// the Fenwick tree and the total R.
func (e *CountsEngine) reactSetVal(a int32) {
	rs := &e.react
	v := e.pop[a] * rs.w[a]
	if d := v - rs.rvals[a]; d != 0 {
		rs.fen.add(a, d)
		rs.R += d
		rs.rvals[a] = v
	}
}

// reactPartners returns responder a's reactive partner list, rebuilding
// it when occupancy membership changed since it was last built. The scan
// order is the active list's, which checkpoints serialize — a resumed
// run rebuilds the identical list.
func (e *CountsEngine) reactPartners(a int32) []int32 {
	rs := &e.react
	if rs.partnerVer[a] == e.occVer {
		return rs.partners[a]
	}
	lst := rs.partners[a][:0]
	for _, b := range e.active {
		if e.reactivePair(a, b) {
			lst = append(lst, b)
		}
	}
	rs.partners[a] = lst
	rs.partnerVer[a] = e.occVer
	return lst
}

// reactSample draws the next reactive interaction's ordered state pair
// under the scheduler's law conditioned on reactivity: responder a with
// probability pop[a]·w[a]/R, then initiator b from a's partner list with
// weight pop[b] (pop[a]−1 for b = a). Consumes exactly two uniforms.
func (e *CountsEngine) reactSample() (int32, int32) {
	rs := &e.react
	a := rs.fen.find(e.src.Uintn(uint64(rs.R)))
	u := int64(e.src.Uintn(uint64(rs.w[a])))
	for _, b := range e.reactPartners(a) {
		wb := e.pop[b]
		if b == a {
			wb--
		}
		if u < wb {
			return a, b
		}
		u -= wb
	}
	panic("sim: reactive sample exhausted partner mass (maintenance law violated)")
}

// geomSkip samples the number of silent steps before the next reactive
// one — Geometric(p) on {0, 1, ...} by inversion, one uniform — capped at
// room (the cap also absorbs the infinite tail of log(0)). rng.Geometric
// is trial-by-trial and unusable at the tiny p this path exists for.
func geomSkip(u float64, p float64, room uint64) uint64 {
	if p >= 1 {
		return 0
	}
	// 1−u is uniform on (0, 1], keeping the log finite.
	g := math.Log1p(-u) / math.Log1p(-p)
	if !(g < float64(room)) {
		return room
	}
	return uint64(g)
}

// exactChunkSkip is exactChunk's step loop, the one exact walker: it
// steps plainly while the census keeps changing, engages silent-step
// skipping after reactEngageRun consecutive silent steps, and skips
// analytically until the reactive fraction climbs back over the disengage
// threshold. A chunk that may not skip (see skipEligible) never engages,
// so it steps plainly throughout. Probes fire at their exact cadence
// (skips clamp at the next probe boundary; a reactive step fires after its
// census update, like Step), and e.step advances exactly as plain stepping
// would. Engagement state is chunk-local — see the package comment's
// resume argument.
func (e *CountsEngine) exactChunkSkip(end uint64, checkStable bool) bool {
	e.reactInvalidate()
	eligible := e.skipEligible()
	run := 0
	engageRun := reactEngageRun
	for e.step < end {
		if !e.react.valid {
			// Plain stepping, counting the current silent run.
			if e.Step() {
				run = 0
				if checkStable && e.proto.Stable(e.classCounts) {
					return true
				}
				continue
			}
			run++
			if run >= engageRun && eligible && len(e.active) <= reactMaxOcc {
				e.reactBuild()
				run = 0
			}
			continue
		}

		// Engaged: advance to the next reactive interaction or the next
		// boundary, whichever is closer (the chunk end already honors the
		// perturbation clamp, so only probe boundaries cut it further).
		room := e.unitLen(end - e.step)
		nn := int64(e.n) * int64(e.n-1)
		R := e.react.R
		if R > 0 && R*reactDisengageInv > nn {
			// Reactive fraction too high for skipping to pay; fall back
			// to plain stepping, raising the bar for re-engagement.
			e.reactInvalidate()
			engageRun *= 4
			continue
		}
		var g uint64
		if R == 0 {
			// No occupied pair is reactive: the census is frozen until an
			// external event (a perturbation) changes it. Jump
			// boundary to boundary without consuming randomness.
			g = room
		} else {
			g = geomSkip(e.src.Float64(), float64(R)/float64(nn), room)
		}
		if g >= room {
			e.step += room
			if e.probes.due(e.step) {
				e.fireProbes()
			}
			// Memorylessness: conditioned on `room` silent steps, the
			// residual wait is geometric again — redraw next iteration.
			continue
		}
		e.step += g + 1
		e.interact(e.reactSample())
		if checkStable && e.proto.Stable(e.classCounts) {
			return true
		}
	}
	return false
}
