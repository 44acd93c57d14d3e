package sim

import (
	"fmt"
	"math"
	"math/bits"

	"popelect/internal/rng"
)

// Hook observes a single applied interaction. step is the 1-based step
// index; ri and ii are the responder and initiator agent indices; oldR/oldI
// and newR/newI their states before and after. Hooks run on the simulation
// goroutine; they must not retain references to engine internals.
type Hook func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32)

// Observer samples the whole population periodically. It receives the step
// count and a read-only view of the population slice.
//
// Observers are a dense-backend legacy interface: they expose agent
// identities (the population slice), which only the dense runner has. New
// code should use the backend-agnostic census Probe instead (see AddProbe);
// observers are implemented as a thin adapter over the probe pipeline.
type Observer func(step uint64, pop []uint32)

// Runner executes one population protocol instance.
//
// A Runner is single-goroutine; to parallelize, create one Runner per trial
// (see Trials).
type Runner struct {
	// unitLoop drives Run/RunSteps and owns the step counter, population
	// size, budget, probes, checkpoints and perturbation (see unit.go). The
	// dense runner's scheduling unit is a run of interactions up to the next
	// checkpoint boundary — or a single interaction while a perturbation is
	// attached, which applies after every interaction.
	unitLoop

	proto Protocol
	// delta is the transition function Step applies: the protocol's
	// compiled fast path when it implements DeltaCompiler (one private
	// memo per runner — see CompileDelta), proto.Delta otherwise.
	delta func(r, i uint32) (uint32, uint32)
	pop   []uint32

	counts  []int64
	leaders int

	// TrackStates enables counting distinct states seen (costs one map
	// insertion per state change; off by default).
	TrackStates bool

	hooks []Hook

	// stateCensus is the incremental state→count aggregation of pop,
	// maintained only while a census-reading probe is registered (censusOn);
	// it costs two map updates per state change. Observer adapters and
	// probe-free runs leave it off, and on-demand Census() calls build a
	// throwaway snapshot instead.
	stateCensus map[uint32]int64
	censusOn    bool

	seen map[uint32]struct{}

	// enumIdx is the lazily built state → States()-index map of the
	// snapshot codec; enumStates the protocol's state enumeration for
	// perturbation scrambles.
	enumIdx    map[uint32]int32
	enumStates []uint32
}

// NewRunner creates a runner for proto scheduled by src, the model's
// uniform random scheduler.
func NewRunner(proto Protocol, src *rng.Source) *Runner {
	n := proto.N()
	if n < 2 {
		panic(fmt.Sprintf("sim: population size %d < 2", n))
	}
	r := &Runner{proto: proto, delta: proto.Delta}
	r.unitLoop = newUnitLoop(r, ckptKindDense, proto, src)
	if dc, ok := proto.(DeltaCompiler); ok {
		if f := dc.CompileDelta(); f != nil {
			r.delta = f
		}
	}
	r.Reset()
	return r
}

// Reset reinitializes the population to the protocol's initial
// configuration, clearing all counters. The PRNG is not reseeded.
func (r *Runner) Reset() {
	r.resetLoop()
	if cap(r.pop) < r.n {
		r.pop = make([]uint32, r.n)
	} else {
		r.pop = r.pop[:r.n]
	}
	nc := r.proto.NumClasses()
	if r.counts == nil {
		r.counts = make([]int64, nc)
	} else {
		for i := range r.counts {
			r.counts[i] = 0
		}
	}
	r.leaders = 0
	if r.TrackStates {
		r.seen = make(map[uint32]struct{})
	}
	if r.censusOn {
		r.stateCensus = make(map[uint32]int64)
	}
	r.init.runs(func(s uint32, start, end int64) {
		pop := r.pop[start:end]
		for i := range pop {
			pop[i] = s
		}
		r.counts[r.proto.Class(s)] += end - start
		if r.proto.Leader(s) {
			r.leaders += int(end - start)
		}
		if r.TrackStates {
			r.seen[s] = struct{}{}
		}
		if r.censusOn {
			r.stateCensus[s] += end - start
		}
	})
}

// SetPerturbation implements Perturbable: p is applied after every
// interaction, the dense backend's scheduling-unit boundary. It requires
// the protocol to be Enumerable (scrambles draw from the enumeration). Must
// be called before Run; nil detaches.
func (r *Runner) SetPerturbation(p Perturbation) error {
	if p != nil {
		en, ok := r.proto.(Enumerable)
		if !ok {
			return fmt.Errorf("sim: perturbations need an enumerable protocol")
		}
		r.enumStates = en.States()
	}
	return r.attachPert(p, r.proto.NumClasses(), denseTarget{r})
}

// buildCensus aggregates a population slice into a state→count map.
func buildCensus(pop []uint32) map[uint32]int64 {
	m := make(map[uint32]int64)
	for _, s := range pop {
		m[s]++
	}
	return m
}

// AddHook registers a per-interaction hook.
func (r *Runner) AddHook(h Hook) { r.hooks = append(r.hooks, h) }

// AddObserver registers a population observer invoked every interval
// interactions (and once more at the end of Run). Each observer fires at
// its own interval. It is a thin adapter over the probe pipeline: the
// observer rides the probe schedule but reads the population slice
// directly, so it adds no census upkeep.
func (r *Runner) AddObserver(o Observer, interval uint64) {
	if interval == 0 {
		interval = 1
	}
	r.probes.add(func(step uint64, _ CensusView) { o(step, r.pop) }, interval, r.step)
}

// AddProbe registers a census probe firing every `every` interactions plus
// once at the end of Run (every == 0: end of Run only). Registering a
// periodic probe switches the runner to incremental state-census
// maintenance, which costs two map updates per state change; final-only
// probes are instead served by a one-off O(n) snapshot at fire time and
// add no per-interaction cost.
func (r *Runner) AddProbe(p Probe, every uint64) {
	r.probes.add(p, every, r.step)
	if every > 0 && !r.censusOn {
		r.censusOn = true
		r.stateCensus = buildCensus(r.pop)
	}
}

// view is the runner's census view for the unit loop (Census, probes): it
// reads the incremental census when maintained and otherwise aggregates the
// population on first use (O(n)).
func (r *Runner) view() CensusView { return &denseView{r: r, step: r.step} }

func (r *Runner) stable() bool { return r.proto.Stable(r.counts) }

// denseView adapts the dense runner to CensusView. It reads the runner's
// incremental census when maintained, and otherwise aggregates the
// population lazily on first state access.
type denseView struct {
	r    *Runner
	step uint64
	lazy map[uint32]int64
}

func (v *denseView) censusMap() map[uint32]int64 {
	if v.r.censusOn {
		return v.r.stateCensus
	}
	if v.lazy == nil {
		v.lazy = buildCensus(v.r.pop)
	}
	return v.lazy
}

func (v *denseView) Step() uint64     { return v.step }
func (v *denseView) N() int           { return v.r.n }
func (v *denseView) Occupied() int    { return len(v.censusMap()) }
func (v *denseView) Classes() []int64 { return v.r.counts }
func (v *denseView) Leaders() int     { return v.r.leaders }
func (v *denseView) VisitStates(f func(s uint32, count int64)) {
	for s, c := range v.censusMap() {
		f(s, c)
	}
}

// SetTrackStates implements StateTracker: it sets TrackStates.
func (r *Runner) SetTrackStates(on bool) { r.TrackStates = on }

// Population returns the live population slice. Callers must treat it as
// read-only.
func (r *Runner) Population() []uint32 { return r.pop }

// Counts returns the live per-class census. Callers must treat it as
// read-only.
func (r *Runner) Counts() []int64 { return r.counts }

// Leaders returns the current number of leader-output agents.
func (r *Runner) Leaders() int { return r.leaders }

// DefaultBudget returns the default interaction budget for population size
// n: generous compared to the paper's O(n log^2 n) whp bound, plus a term
// covering the slow-backup regime at small n. The n·log²n·64 product is
// computed with saturating arithmetic so that the very large populations
// reachable by the counts backend cannot silently overflow uint64 into a
// tiny (or zero) budget.
func DefaultBudget(n int) uint64 {
	log2 := 1
	for v := n; v > 1; v >>= 1 {
		log2++
	}
	b := satMul(satMul(uint64(n), uint64(log2)*uint64(log2)), 64)
	if slow := uint64(n) * uint64(n) * 8; b < slow && n <= 1<<14 {
		// For small-to-moderate populations the Θ(n²)-interaction slow
		// protocols (and the slow-backup regime of the fast ones) may
		// need quadratically many interactions; allow them to finish.
		b = slow
	}
	return b
}

// satMul multiplies two uint64s, saturating at MaxUint64 on overflow.
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// Step executes exactly one interaction and returns whether the
// configuration changed.
func (r *Runner) Step() bool {
	var ri, ii int
	if r.pert.bias != nil {
		ri, ii = r.biasedPair()
	} else {
		ri, ii = r.src.Pair(r.n)
	}
	oldR, oldI := r.pop[ri], r.pop[ii]
	newR, newI := r.delta(oldR, oldI)
	r.step++
	changed := false
	if newR != oldR {
		r.apply(ri, oldR, newR)
		changed = true
	}
	if newI != oldI {
		r.apply(ii, oldI, newI)
		changed = true
	}
	for _, h := range r.hooks {
		h(r.step, ri, ii, oldR, oldI, newR, newI)
	}
	if r.probes.due(r.step) {
		r.fireProbes()
	}
	return changed
}

// biasedPair draws an ordered (responder, initiator) pair under the
// attached bias: each role is selected proportionally to its state's class
// weight, by rejection sampling against the maximum weight on the
// scheduler stream. The initiator is conditioned to differ from the
// responder, matching the uniform scheduler's distinct-pair law.
func (r *Runner) biasedPair() (int, int) {
	ri := r.biasedIndex(-1)
	return ri, r.biasedIndex(ri)
}

func (r *Runner) biasedIndex(exclude int) int {
	for {
		i := int(r.src.Uintn(uint64(r.n)))
		if i == exclude {
			continue
		}
		w := r.pert.bias[r.proto.Class(r.pop[i])]
		if w == r.pert.biasMax || r.src.Float64()*r.pert.biasMax < w {
			return i
		}
	}
}

// denseTarget adapts the dense runner to PerturbTarget, keeping the class
// census, leader count, incremental state census and distinct-state
// tracker consistent through population mutations. Perturbation events do
// not fire interaction hooks.
type denseTarget struct{ r *Runner }

func (t denseTarget) LiveN() int { return t.r.n }

// RemoveUniform removes k agents one at a time, each uniform over the
// remainder — exactly the without-replacement law of the counts backend's
// MVH row draw. Swap-removal is fine: agent identity carries no state.
func (t denseTarget) RemoveUniform(src *rng.Source, k int64) {
	r := t.r
	for j := int64(0); j < k && r.n > 0; j++ {
		i := int(src.Uintn(uint64(r.n)))
		s := r.pop[i]
		r.counts[r.proto.Class(s)]--
		if r.proto.Leader(s) {
			r.leaders--
		}
		if r.censusOn {
			if c := r.stateCensus[s] - 1; c == 0 {
				delete(r.stateCensus, s)
			} else {
				r.stateCensus[s] = c
			}
		}
		r.n--
		r.pop[i] = r.pop[r.n]
		r.pop = r.pop[:r.n]
	}
}

func (t denseTarget) AddAgents(src *rng.Source, k int64) {
	r := t.r
	for j := int64(0); j < k; j++ {
		s := r.joinState(src)
		r.pop = append(r.pop, s)
		r.n++
		r.counts[r.proto.Class(s)]++
		if r.proto.Leader(s) {
			r.leaders++
		}
		if r.censusOn {
			r.stateCensus[s]++
		}
		if r.TrackStates {
			r.ensureSeen()
			r.seen[s] = struct{}{}
		}
	}
}

// ScrambleUniform picks k distinct agents by rejection against a seen-set
// (the without-replacement law again) and replaces each state by a uniform
// draw from the protocol's enumeration.
func (t denseTarget) ScrambleUniform(src *rng.Source, k int64) {
	r := t.r
	if k > int64(r.n) {
		k = int64(r.n)
	}
	picked := make(map[int]struct{}, k)
	for int64(len(picked)) < k {
		i := int(src.Uintn(uint64(r.n)))
		if _, dup := picked[i]; dup {
			continue
		}
		picked[i] = struct{}{}
		ns := r.enumStates[src.Uintn(uint64(len(r.enumStates)))]
		if ns != r.pop[i] {
			r.apply(i, r.pop[i], ns)
		}
	}
}

func (r *Runner) apply(idx int, old, new uint32) {
	r.pop[idx] = new
	r.counts[r.proto.Class(old)]--
	r.counts[r.proto.Class(new)]++
	if r.censusOn {
		if c := r.stateCensus[old] - 1; c == 0 {
			delete(r.stateCensus, old)
		} else {
			r.stateCensus[old] = c
		}
		r.stateCensus[new]++
	}
	if r.proto.Leader(old) {
		r.leaders--
	}
	if r.proto.Leader(new) {
		r.leaders++
	}
	if r.TrackStates {
		r.ensureSeen()
		r.seen[new] = struct{}{}
	}
}

// ensureSeen initializes the distinct-state tracker on first use, seeding it
// with all states currently present (TrackStates may be enabled after
// NewRunner has already built the initial population).
func (r *Runner) ensureSeen() {
	if r.seen != nil {
		return
	}
	r.seen = make(map[uint32]struct{})
	for _, s := range r.pop {
		r.seen[s] = struct{}{}
	}
}

// advance implements unitEngine: up to limit interactions, stopping at the
// next checkpoint boundary (exact-chunk rules, see unit.go) and after a
// single interaction while a perturbation is attached. With checkStable it
// tests stability after every census-changing interaction (Stable is
// absorbing on census classes, so unchanged steps cannot flip it) and stops
// at the exact interaction where the protocol stabilizes.
func (r *Runner) advance(limit uint64, checkStable bool) bool {
	if r.pert.active() {
		limit = 1
	}
	for end := r.step + r.exactLen(limit); r.step < end; {
		if r.Step() && checkStable && r.proto.Stable(r.counts) {
			return true
		}
	}
	return false
}

func (r *Runner) result(converged bool) Result {
	res := Result{
		Converged:    converged,
		Interactions: r.step,
		N:            r.n,
		Leaders:      r.leaders,
		LeaderID:     -1,
		Counts:       append([]int64(nil), r.counts...),
	}
	if r.leaders == 1 {
		for i, s := range r.pop {
			if r.proto.Leader(s) {
				res.LeaderID = i
				break
			}
		}
	}
	if r.TrackStates {
		r.ensureSeen()
		res.DistinctStates = len(r.seen)
	}
	return res
}
