package sim

import (
	"sync"

	"popelect/internal/rng"
)

// This file is the sharded batch-sampling path of the counts engine. The
// multivariate hypergeometric (MVH) distribution is consistent under
// grouping: splitting l draws over shard-level aggregates first (one short
// chain on the main stream) and then splitting each shard's allocation
// over its own columns independently (per-shard streams) is exactly the
// flat chain's law. That two-level decomposition makes both the responder
// split and every pairing row's initiator split embarrassingly parallel at
// the column level:
//
//	A1 (main stream, serial):   l responders → shard aggregates
//	B1 (shard streams, parallel): shard responders → own columns
//	A2 (main stream, serial):   each pairing row's k → shard pools
//	B2 (shard streams, parallel): row allocations → own columns,
//	                              staging census deltas privately
//	join (serial, fixed order): resolve unmemoized cells, merge diffs
//
// Shard s owns the occ positions j ≡ s (mod workers) — a fixed, strided
// mapping, so the count-descending global order is count-descending within
// every shard (the chains keep their early-exit) and the load balances.
// Shards draw from src.Split(s) streams derived from the main stream's
// post-A1 state: a pure function of (state, shard), so a fixed Workers
// value replays byte-identically on any machine, while different Workers
// values consume randomness differently — statistically equivalent, like a
// different seed (the cross-worker equivalence tests pin this down).
//
// During the parallel phases shards read pop/occ and the delta memo, and
// write only shard-owned memory: their own stream, column slices and
// private staging state. The memo is never written (unmemoized cells go
// to per-shard miss lists, resolved serially after the join), so the
// whole path is race-free by construction and runs clean under -race.
//
// Shard-owned also means on shard-owned cache lines. Each shard keeps its
// rng state by value and its owned responder and pool columns in compact
// slices (entry i is occ position s + i·w), its arrays end in a line of
// slack, and its struct is padded past the next shard's fields. A line
// two cores write moves between them on every write: with shared lines,
// two workers sampled GSU19 at n = 10⁸ about 25% slower (DESIGN.md §14).

// Parallel batch gating: batches shorter than parallelMinBatch
// interactions, or censuses narrower than parallelMinOcc occupied states,
// sample serially — the fan-out/join overhead (two goroutine barriers plus
// a merge pass) exceeds the sampling work there.
const (
	parallelMinBatch = 1 << 12
	parallelMinOcc   = 16
)

// cacheLine is the coherence granule the shard layout keeps apart.
const cacheLine = 64

// countsShard is one worker's slice of a sharded batch. The trailing pad
// keeps this shard's mutable fields (src above all, written on every
// draw) off the cache lines of the next shard's.
type countsShard struct {
	src   rng.Source // per-batch stream, derived via Split(shard)
	count int64      // aggregate census count over owned columns
	resp  int64      // phase-A1 responder allocation to this shard
	pool  int64      // remaining initiator pool total over owned columns
	// Owned columns, compact: entry i is occ position s + i·w.
	respCol []int64 // phase-B1 responder split
	poolCol []int64 // initiator pool, drawn down by phase B2
	alloc   []int64 // per-row initiator allocation to this shard (by occ position)
	diff    []int64 // privately staged census changes (by id)
	touched []int32
	miss    []missCell
	_       [cacheLine]byte
}

// missCell is a sampled pair-class cell whose transition was not yet
// memoized at sampling time; the main goroutine resolves and stages it
// after the join (resolution may discover and index successor states,
// which shards must not do).
type missCell struct {
	a, b int32
	k    int64
}

// batchShards returns how many sampling shards a batch of l interactions
// over occ occupied states fans out to (1 = serial). The result depends
// only on (Workers, l, occ) — all deterministic — never on the physical
// core count.
func (e *CountsEngine) batchShards(l uint64, occ int) int {
	w := e.Workers
	if w <= 1 || l < parallelMinBatch || occ < parallelMinOcc {
		return 1
	}
	if w > occ/2 {
		w = occ / 2
	}
	return w
}

// sampleBatchSharded draws one batch of l interactions across w shards and
// stages its census deltas, equivalently to sampleBatchSerial in law but
// with the randomness consumed per the two-level decomposition above.
func (e *CountsEngine) sampleBatchSharded(l uint64, w int) {
	occ := e.occ
	if cap(e.shards) < w {
		e.shards = make([]countsShard, w)
	}
	shards := e.shards[:w]
	e.shards = shards
	for s := range shards {
		sh := &shards[s]
		sh.count = 0
		cols := (len(occ) - s + w - 1) / w
		ensureShardLen(&sh.respCol, cols)
		ensureShardLen(&sh.poolCol, cols)
		clear(ensureShardLen(&sh.alloc, len(occ)))
		// diff entries are zeroed at merge time (and by allocation
		// growth), so only the length needs refreshing here.
		ensureShardLen(&sh.diff, len(e.pop))
		sh.touched = sh.touched[:0]
		sh.miss = sh.miss[:0]
	}
	for j, id := range occ {
		shards[j%w].count += e.pop[id]
	}

	// Phase A1: split the l responders over the shard aggregates.
	rem := int64(e.n)
	need := int64(l)
	for s := range shards {
		sh := &shards[s]
		var k int64
		if need > 0 {
			k = hyperDraw(e.src, sh.count, rem-sh.count, need)
		}
		sh.resp = k
		need -= k
		rem -= sh.count
		sh.pool = sh.count - sh.resp
	}
	for s := range shards {
		shards[s].src = *e.src.Split(uint64(s))
	}

	// Phase B1: each shard splits its responder allocation over its own
	// columns, writing only its own respCol and poolCol.
	var wg sync.WaitGroup
	for s := 1; s < w; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e.shardRespSplit(s, w)
		}(s)
	}
	e.shardRespSplit(0, w)
	wg.Wait()

	// Phase A2: allocate each pairing row's initiators over the shard
	// pools, rows in the fixed global order (the pairing is exchangeable,
	// so a fixed order is unbiased — same argument as the serial path).
	poolTotal := int64(e.n) - int64(l)
	for j := range occ {
		k := shards[j%w].respCol[j/w]
		if k == 0 {
			continue
		}
		remPool := poolTotal
		d := k
		for s := range shards {
			if d == 0 {
				break
			}
			sh := &shards[s]
			ps := sh.pool
			if ps == 0 {
				continue
			}
			ks := hyperDraw(e.src, ps, remPool-ps, d)
			if ks > 0 {
				sh.alloc[j] = ks
				sh.pool -= ks
				d -= ks
			}
			remPool -= ps
		}
		poolTotal -= k
	}

	// Phase B2: each shard pairs its allocated initiators over its own
	// columns, staging census deltas privately.
	for s := 1; s < w; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e.shardPair(s, w)
		}(s)
	}
	e.shardPair(0, w)
	wg.Wait()

	// Join, in fixed shard order: resolve the cells the read-only memo
	// missed, then merge the shards' staged diffs into the engine's.
	for s := range shards {
		sh := &shards[s]
		for _, m := range sh.miss {
			a2, b2 := e.deltaIDs(m.a, m.b)
			e.stage(m.a, m.b, a2, b2, m.k)
		}
		sh.miss = sh.miss[:0]
		for _, id := range sh.touched {
			if d := sh.diff[id]; d != 0 {
				e.stageOne(id, d)
				sh.diff[id] = 0
			}
		}
		sh.touched = sh.touched[:0]
	}
}

// shardRespSplit is phase B1 for shard s of w: split the shard's responder
// allocation over its own columns with a hypergeometric chain on the
// shard's stream, and initialize its pool columns.
func (e *CountsEngine) shardRespSplit(s, w int) {
	sh := &e.shards[s]
	occ, resp, pool := e.occ, sh.respCol, sh.poolCol
	rem := sh.count
	need := sh.resp
	for i := range resp {
		c := e.pop[occ[s+i*w]]
		var k int64
		if need > 0 {
			k = hyperDraw(&sh.src, c, rem-c, need)
		}
		resp[i] = k
		pool[i] = c - k
		need -= k
		rem -= c
	}
}

// shardPair is phase B2 for shard s of w: for every pairing row (fixed
// global order), split the row's allocation to this shard over the shard's
// own pool columns (count-descending, early exit) and stage the census
// effects privately.
func (e *CountsEngine) shardPair(s, w int) {
	sh := &e.shards[s]
	occ, pool := e.occ, sh.poolCol
	shardPool := int64(0)
	for _, p := range pool {
		shardPool += p
	}
	for j := range occ {
		k := sh.alloc[j]
		if k == 0 {
			continue
		}
		a := occ[j]
		remPool := shardPool
		d := k
		for i, pb := range pool {
			if d == 0 {
				break
			}
			if pb == 0 {
				continue
			}
			kb := hyperDraw(&sh.src, pb, remPool-pb, d)
			if kb > 0 {
				pool[i] = pb - kb
				d -= kb
				e.shardStage(sh, a, occ[s+i*w], kb)
			}
			remPool -= pb
		}
		shardPool -= k
	}
}

// shardStage stages the census effect of k interactions of one pair class
// into the shard's private diff, deferring unmemoized transitions to the
// miss list.
func (e *CountsEngine) shardStage(sh *countsShard, a, b int32, k int64) {
	a2, b2, ok := e.deltaLookup(a, b)
	if !ok {
		sh.miss = append(sh.miss, missCell{a: a, b: b, k: k})
		return
	}
	sh.stageOne(a, -k)
	sh.stageOne(b, -k)
	sh.stageOne(a2, k)
	sh.stageOne(b2, k)
}

func (sh *countsShard) stageOne(id int32, d int64) {
	if sh.diff[id] == 0 {
		sh.touched = append(sh.touched, id)
	}
	sh.diff[id] += d
}

// ensureShardLen is ensureLen for the shard-owned arrays: growth allocates
// a cache line of slack past the end, so the lines a shard writes never
// hold another shard's array.
func ensureShardLen(s *[]int64, n int) []int64 {
	if cap(*s) < n {
		*s = make([]int64, n, n+cacheLine/8)
	}
	*s = (*s)[:n]
	return *s
}
