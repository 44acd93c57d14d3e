package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"popelect/internal/rng"
)

// ShardedCountsEngine is the sharded population backend: the n agents are
// partitioned into K sub-censuses, each owned by its own CountsEngine core
// (census, alias tables, active list, batch policy state) on its own
// rng.Source.Split(k) stream, advanced concurrently by K goroutines with no
// per-interaction coordination. Interactions are intra-shard only; between
// epochs a stochastic migration step exchanges agents across shards.
//
// This is simultaneously a true multicore execution model — each shard's
// O(states²) batch work and batch barrier runs on its own core, the scaling
// ceiling the in-batch worker pool (CountsEngine.Workers) cannot pass — and
// a new scenario: population protocols on a clustered communication graph,
// where the migration rate λ is the inter-cluster mixing strength.
//
//   - Fidelity mode (λ = DefaultMigrationRate) keeps the composite law
//     close enough to the global uniform scheduler that stabilization-time
//     distributions are KS-consistent with dense ground truth (see
//     TestShardedFidelityKS and the shardscale experiment).
//   - Scenario mode (a free Migration λ, possibly 0) makes the clustered
//     graph the model itself: weak inter-cluster mixing is how the derived
//     Γ(n) phase clock is stress-tested — shards whose juntas decohere
//     drag the aggregate bulk span past Γ/2 (the tearing signature) even
//     while every local clock stays healthy.
//
// Scheduling: an epoch of n₀/16 global interactions is allocated to the
// shards proportionally to shard size (largest-remainder rounding with a
// rotating offset, so sub-epoch advances — probe splits, budget tails — do
// not starve a fixed shard), each shard advances its allocation under its
// own batch policy, and the goroutines join only at the epoch boundary.
// The migration exchange then moves a Binomial(n_k, λ) headcount out of
// every shard — split over the shard's occupied states by a multivariate
// hypergeometric row draw — into a pool, and redistributes the pool so
// each shard receives exactly as many agents as it sent (MVH row draws in
// fixed shard order). Shard sizes are therefore invariant, pooled agents
// are exchangeable across shards, and the state totals of the merged
// census are untouched by migration (agents move between shards, never
// between states).
//
// Determinism contract: all migration and allocation randomness comes from
// the parent stream serially in fixed shard order, and shard k always owns
// the same Split(k) stream, so a fixed (K, λ, epoch, seed, Workers) tuple
// replays byte-identically on any machine regardless of physical core
// count. Different K (or λ) values are different models — not merely
// different randomness orders.
//
// Like the single-census engines, a ShardedCountsEngine is single-goroutine
// from the caller's perspective; the K-way fan-out is internal to Run and
// RunSteps.
type ShardedCountsEngine[S comparable] struct {
	// unitLoop drives Run/RunSteps and owns the step counter, population
	// size (per-shard sizes drift with it under churn), budget, probes,
	// checkpoints and perturbation (see unit.go); the sharded engine's
	// scheduling units are epoch slices.
	unitLoop[S]

	proto Enumerable[S]

	// Migration is λ, the probability that an agent joins the inter-shard
	// migration pool at each epoch boundary. The constructor sets it to
	// DefaultMigrationRate (fidelity mode); 0 disables migration entirely
	// (K isolated populations — the fully decoupled scenario extreme).
	Migration float64

	// epoch is the number of global interactions between migration
	// steps, n₀/16 (floored at 1), fixed at construction. A 1/16
	// parallel-time unit is short against every protocol timescale, yet
	// long enough that the serial migration step (O(K · occupied states)
	// draws) is negligible against the epoch's sampling work.
	epoch uint64

	subs  []*CountsEngine[S]
	sizes []int64 // shard populations; invariant under migration

	sinceMig uint64 // interactions since the last migration exchange
	rr       int    // rotating offset for largest-remainder allocation

	// merged is the cross-shard state→count aggregation backing the
	// census views probes observe, rebuilt lazily per step (mergedOK,
	// mergedStep) — stability checks only need the class aggregate, so
	// the full merge is paid only when a probe actually looks.
	merged     map[S]int64
	mergedStep uint64
	mergedOK   bool

	// Per-call scratch, reused across epochs.
	aggClasses []int64
	alloc      []uint64
	outCount   []int64
	migRowsS   []S
	migRowsC   []int64
	migAlloc   []int64
	poolS      []S
	poolC      []int64
	poolAlloc  []int64
}

// DefaultMigrationRate is the fidelity-mode migration probability: at every
// epoch boundary each agent joins the exchange pool with probability 1/2.
// Combined with the n/16 epoch this mixes the shards an order of
// magnitude faster than any protocol phase advances, which is what keeps
// the composite law KS-consistent with the global uniform scheduler (the
// validated bar; see the shardscale experiment). Scenario runs set
// Migration freely.
const DefaultMigrationRate = 0.5

// shardProto restricts an Enumerable protocol to one shard: the population
// size becomes the shard size and agent indices are offset into the global
// range, so seeded initial configurations (majority splits) partition
// exactly as a contiguous block assignment of agents to shards. Everything
// else — transitions, classes, enumeration — passes through unchanged.
type shardProto[S comparable] struct {
	Enumerable[S]
	size, offset int
}

func (p shardProto[S]) N() int       { return p.size }
func (p shardProto[S]) Init(i int) S { return p.Enumerable.Init(p.offset + i) }

// NewShardedCountsEngine creates a sharded counts engine for proto with the
// given shard count, in fidelity mode (DefaultMigrationRate).
// The population size must be at least 2; the shard count is clamped to
// [1, n/2] so every sub-census holds at least one interacting pair.
func NewShardedCountsEngine[S comparable](proto Enumerable[S], src *rng.Source, shards int) *ShardedCountsEngine[S] {
	n := proto.N()
	if n < 2 {
		panic(fmt.Sprintf("sim: population size %d < 2", n))
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n/2 {
		shards = n / 2
	}
	e := &ShardedCountsEngine[S]{
		proto:     proto,
		Migration: DefaultMigrationRate,
		epoch:     max(uint64(n)/16, 1),
		subs:      make([]*CountsEngine[S], shards),
		sizes:     make([]int64, shards),
	}
	e.unitLoop = newUnitLoop[S](e, ckptKindSharded, proto.Name(), src, n)
	base, extra := n/shards, n%shards
	offset := 0
	for k := range e.subs {
		size := base
		if k < extra {
			size++
		}
		e.sizes[k] = int64(size)
		e.subs[k] = NewCountsEngine[S](shardProto[S]{Enumerable: proto, size: size, offset: offset}, src.Split(uint64(k)))
		offset += size
	}
	return e
}

// Reset reinitializes every sub-census to the protocol's initial
// configuration (PRNG streams are not reseeded, matching CountsEngine).
func (e *ShardedCountsEngine[S]) Reset() {
	e.resetLoop()
	for k, sub := range e.subs {
		sub.Reset()
		e.sizes[k] = int64(sub.n0)
	}
	e.sinceMig = 0
	e.rr = 0
	e.mergedOK = false
}

// Counts implements Engine: the per-class census aggregated across shards.
// Callers must treat it as read-only; it is recomputed on every call.
func (e *ShardedCountsEngine[S]) Counts() []int64 { return e.aggregateClasses() }

// Leaders implements Engine.
func (e *ShardedCountsEngine[S]) Leaders() int {
	l := 0
	for _, sub := range e.subs {
		l += sub.Leaders()
	}
	return l
}

// DistinctStates returns the number of distinct agent states observed in
// any shard since the last Reset.
func (e *ShardedCountsEngine[S]) DistinctStates() int {
	distinct := make(map[S]struct{})
	for _, sub := range e.subs {
		for _, s := range sub.states {
			distinct[s] = struct{}{}
		}
	}
	return len(distinct)
}

// SetBatchPolicy implements BatchConfigurable by forwarding the policy to
// every sub-census. Note that policy tiering resolves per shard population
// n/K, not n: sharding a population can move its sub-censuses down into
// the exact or faithful-adaptive tier (e.g. n = 10⁹ over K = 8 shards puts
// each 1.25·10⁸-agent sub-census inside AutoAdaptiveMaxN). Sub-censuses
// inherit the reactive-pair layer (reactive.go) for free through their
// exact chunks and serial batches: each shard maintains its own silent
// mass over its own census, and epoch-boundary migration lands through
// censusAdd, which invalidates the shard's reactive structures before
// mutating the census.
func (e *ShardedCountsEngine[S]) SetBatchPolicy(p BatchPolicy) {
	for _, sub := range e.subs {
		sub.Policy = p
	}
}

// SetWorkers implements WorkerConfigurable by forwarding to every
// sub-census: each shard's batches may additionally fan out over w
// in-batch sampling shards, multiplying the engine's total concurrency to
// K·w. The usual deployment is w = 1 with K matched to the core count.
func (e *ShardedCountsEngine[S]) SetWorkers(w int) {
	for _, sub := range e.subs {
		sub.Workers = w
	}
}

// EffectiveWorkers implements WorkerReporter: the shard count times the
// widest in-batch fan-out any sub-census actually used.
func (e *ShardedCountsEngine[S]) EffectiveWorkers() int {
	inner := 1
	for _, sub := range e.subs {
		if w := sub.EffectiveWorkers(); w > inner {
			inner = w
		}
	}
	return len(e.subs) * inner
}

// ShardCount reports the number of sub-censuses.
func (e *ShardedCountsEngine[S]) ShardCount() int { return len(e.subs) }

// view is the merged cross-shard census view for the unit loop (Census,
// probes).
func (e *ShardedCountsEngine[S]) view() CensusView[S] { return shardedView[S]{e: e, step: e.step} }

func (e *ShardedCountsEngine[S]) stable() bool { return e.proto.Stable(e.aggregateClasses()) }

// shardedView adapts the merged cross-shard census to CensusView.
type shardedView[S comparable] struct {
	e    *ShardedCountsEngine[S]
	step uint64
}

func (v shardedView[S]) Step() uint64     { return v.step }
func (v shardedView[S]) N() int           { return v.e.n }
func (v shardedView[S]) Classes() []int64 { return v.e.aggregateClasses() }
func (v shardedView[S]) Leaders() int     { return v.e.Leaders() }
func (v shardedView[S]) Occupied() int    { return len(v.e.mergedCensus()) }
func (v shardedView[S]) VisitStates(f func(s S, count int64)) {
	for s, c := range v.e.mergedCensus() {
		f(s, c)
	}
}

// mergedCensus returns the state→count aggregation over all shards,
// rebuilt only when the engine advanced since the last merge.
func (e *ShardedCountsEngine[S]) mergedCensus() map[S]int64 {
	if e.mergedOK && e.mergedStep == e.step {
		return e.merged
	}
	m := e.merged
	if m == nil {
		m = make(map[S]int64)
	} else {
		clear(m)
	}
	for _, sub := range e.subs {
		sub.VisitStates(func(s S, c int64) { m[s] += c })
	}
	e.merged = m
	e.mergedStep = e.step
	e.mergedOK = true
	return m
}

// aggregateClasses sums the per-class censuses of all shards into the
// shared scratch (read-only for callers, valid until the next call).
func (e *ShardedCountsEngine[S]) aggregateClasses() []int64 {
	agg := ensureLen(&e.aggClasses, e.proto.NumClasses())
	clear(agg)
	for _, sub := range e.subs {
		for c, v := range sub.Counts() {
			agg[c] += v
		}
	}
	return agg
}

// SetPerturbation implements Perturbable: p is applied at advance-unit
// boundaries (the same call sites as the checkpoint hook — at most one
// epoch, and at most pertCadence interactions, apart). Bias perturbations
// are rejected: a standing class reweighting would have to reweight every
// shard's aggregated batch chains, which the clustered scheduler does not
// model — run bias scenarios on the dense or counts backend. Must be
// called before Run (and before Restore); nil detaches.
func (e *ShardedCountsEngine[S]) SetPerturbation(p Perturbation) error {
	if p != nil && p.ClassWeights() != nil {
		return fmt.Errorf("sim: bias perturbations are not supported on the sharded backend")
	}
	return e.attachPert(p, e.proto.NumClasses(), shardedTarget[S]{e})
}

// shardedTarget adapts the sharded engine to PerturbTarget: every mutation
// is split across the shards on the parent stream in fixed shard order
// (the migration exchange's determinism discipline) and delegated to the
// sub-censuses through their own countsTarget adapters, keeping e.sizes
// and every sub-census structure consistent. Shard sizes stop being
// invariant under churn; the proportional epoch allocation and the
// migration binomials read the live sizes.
type shardedTarget[S comparable] struct{ e *ShardedCountsEngine[S] }

func (t shardedTarget[S]) LiveN() int { return t.e.n }

// RemoveUniform splits the k departures over the shards with an MVH draw
// on per-shard capacities of size−2 — no shard is ever drained below one
// interacting pair, a bias of O(K/n) against the uniform law.
func (t shardedTarget[S]) RemoveUniform(src *rng.Source, k int64) {
	e := t.e
	caps := make([]int64, len(e.subs))
	total := int64(0)
	for i, sz := range e.sizes {
		c := sz - 2
		if c < 0 {
			c = 0
		}
		caps[i] = c
		total += c
	}
	if k > total {
		k = total
	}
	if k <= 0 {
		return
	}
	alloc := make([]int64, len(caps))
	src.MultiHypergeometric(alloc, caps, k)
	for i, a := range alloc {
		if a == 0 {
			continue
		}
		countsTarget[S]{e.subs[i]}.RemoveUniform(src, a)
		e.sizes[i] -= a
	}
	e.n -= int(k)
	e.mergedOK = false
}

// AddAgents splits the k joiners over the shards proportionally to live
// shard size (a binomial multinomial chain on the parent stream); each
// joiner then enters its shard's original agent-index block, so seeded
// initial-state assignments stay block-consistent.
func (t shardedTarget[S]) AddAgents(src *rng.Source, k int64) {
	e := t.e
	remK, remTotal := k, int64(e.n)
	for i := range e.subs {
		sz := e.sizes[i]
		var ki int64
		switch {
		case i == len(e.subs)-1 || remTotal == sz:
			ki = remK
		case remK > 0 && remTotal > 0:
			ki = src.Binomial(remK, float64(sz)/float64(remTotal))
		}
		remTotal -= sz
		if ki > 0 {
			countsTarget[S]{e.subs[i]}.AddAgents(src, ki)
			e.sizes[i] += ki
			remK -= ki
		}
	}
	e.n += int(k)
	e.mergedOK = false
}

func (t shardedTarget[S]) ScrambleUniform(src *rng.Source, k int64) {
	e := t.e
	rows := append([]int64(nil), e.sizes...)
	alloc := make([]int64, len(rows))
	src.MultiHypergeometric(alloc, rows, k)
	for i, a := range alloc {
		if a > 0 {
			countsTarget[S]{e.subs[i]}.ScrambleUniform(src, a)
		}
	}
	e.mergedOK = false
}

// advance implements unitEngine: the rest of the current epoch, at most
// limit interactions and clamped at the next probe boundary, split
// proportionally over the shards and advanced by K concurrent goroutines;
// the migration exchange runs when the epoch completes. Stability is
// therefore detected at scheduling-unit granularity — the same rounding-up
// the single-census engine's batches introduce.
func (e *ShardedCountsEngine[S]) advance(limit uint64, checkStable bool) bool {
	if e.sinceMig >= e.epoch {
		e.migrate()
		e.sinceMig = 0
	}
	l := e.unitLen(min(e.epoch-e.sinceMig, limit))
	e.advanceShards(l)
	e.step += l
	e.sinceMig += l
	e.mergedOK = false
	if e.probes.due(e.step) {
		e.fireProbes()
	}
	if e.sinceMig >= e.epoch {
		e.migrate()
		e.sinceMig = 0
	}
	return checkStable && e.stable()
}

// advanceShards splits l interactions over the shards proportionally to
// shard size (largest-remainder rounding, remainder rotated across calls so
// repeated short units do not pile onto one shard) and runs the shard
// allocations concurrently. Each sub-census consumes only its own stream
// and mutates only its own state, so the fan-out is race-free by
// construction.
func (e *ShardedCountsEngine[S]) advanceShards(l uint64) {
	k := len(e.subs)
	if k == 1 {
		e.subs[0].RunSteps(l)
		return
	}
	alloc := ensureLen(&e.alloc, k)
	assigned := uint64(0)
	for i, size := range e.sizes {
		// alloc[i] = l·size/n in 128-bit arithmetic: l can be a whole
		// budget (≫ 2⁶⁴/n at n = 10⁹⁺ scales).
		hi, lo := bits.Mul64(l, uint64(size))
		q, _ := bits.Div64(hi, lo, uint64(e.n))
		alloc[i] = q
		assigned += q
	}
	rem := l - assigned
	for i := uint64(0); i < rem; i++ {
		alloc[(uint64(e.rr)+i)%uint64(k)]++
	}
	e.rr = int((uint64(e.rr) + rem) % uint64(k))
	var wg sync.WaitGroup
	for s := 1; s < k; s++ {
		if alloc[s] == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e.subs[s].RunSteps(alloc[s])
		}(s)
	}
	if alloc[0] > 0 {
		e.subs[0].RunSteps(alloc[0])
	}
	wg.Wait()
}

// migrate runs the epoch-boundary exchange: every shard emits a
// Binomial(n_k, λ) headcount — split over its occupied states by a
// multivariate hypergeometric row draw and removed into the pool — and
// then receives exactly its emitted headcount back as an MVH draw from the
// pool, shards processed in fixed order on the parent stream. Shard sizes
// and merged state totals are exact invariants; only the assignment of
// agents to shards is resampled.
func (e *ShardedCountsEngine[S]) migrate() {
	if len(e.subs) < 2 || e.Migration <= 0 {
		return
	}
	lambda := e.Migration
	if lambda > 1 {
		lambda = 1
	}
	out := ensureLen(&e.outCount, len(e.subs))
	poolS := e.poolS[:0]
	poolC := e.poolC[:0]
	poolTotal := int64(0)
	for k, sub := range e.subs {
		mk := e.src.Binomial(e.sizes[k], lambda)
		out[k] = mk
		if mk == 0 {
			continue
		}
		rowsS := e.migRowsS[:0]
		rowsC := e.migRowsC[:0]
		sub.VisitStates(func(s S, c int64) {
			rowsS = append(rowsS, s)
			rowsC = append(rowsC, c)
		})
		alloc := ensureLen(&e.migAlloc, len(rowsC))
		e.src.MultiHypergeometric(alloc, rowsC, mk)
		for i, a := range alloc {
			if a == 0 {
				continue
			}
			sub.censusAdd(rowsS[i], -a)
			poolS = append(poolS, rowsS[i])
			poolC = append(poolC, a)
		}
		poolTotal += mk
		e.migRowsS = rowsS[:0]
		e.migRowsC = rowsC[:0]
	}
	for k, sub := range e.subs {
		want := out[k]
		if want == 0 {
			continue
		}
		if want == poolTotal {
			// Tail of the exchange: the rest of the pool is this shard's.
			for i, c := range poolC {
				if c > 0 {
					sub.censusAdd(poolS[i], c)
					poolC[i] = 0
				}
			}
			poolTotal = 0
			continue
		}
		alloc := ensureLen(&e.poolAlloc, len(poolC))
		e.src.MultiHypergeometric(alloc, poolC, want)
		for i, a := range alloc {
			if a == 0 {
				continue
			}
			sub.censusAdd(poolS[i], a)
			poolC[i] -= a
		}
		poolTotal -= want
	}
	e.poolS = poolS[:0]
	e.poolC = poolC[:0]
	e.mergedOK = false
}

func (e *ShardedCountsEngine[S]) result(converged bool) Result {
	return Result{
		Converged:      converged,
		Interactions:   e.step,
		N:              e.n,
		Leaders:        e.Leaders(),
		LeaderID:       -1, // agents are anonymous in the counts backends
		Counts:         append([]int64(nil), e.aggregateClasses()...),
		DistinctStates: e.DistinctStates(),
	}
}
