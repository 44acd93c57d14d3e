package compose

// This file compiles the interpreted module pipeline into a flat
// state-pair → packed-product transition memo — the same pairtab.Table the
// counts backend memoizes Delta in, applied to the dense hot path. The
// composed Delta threads one Env through every module's Deliver per
// interaction; that chain of interface calls is pure and deterministic in
// (r, i) (the counts backend depends on exactly this), so its results can
// be memoized per word pair and the composition stops costing anything
// once the run's working set of pairs has been discovered.

import "popelect/internal/pairtab"

// compiledMaxWordBound caps the word range a DeltaMemo will index directly:
// the word→id lookup is a flat int32 slice of WordBound() entries, so a
// space packing more than 22 bits (16 MiB of lookup per engine) is not
// compiled and stays on the interpreted pipeline. The kit-built lottery's
// rank/maxSeen payload exceeds this; GS18 and the clocked scenario
// protocols (≤ 20 bits) compile.
const compiledMaxWordBound = 1 << 22

// DeltaMemo memoizes a composed protocol's transition function over packed
// word pairs: words get dense ids on first sight through a flat
// word-indexed lookup, and id pairs memoize the packed product
// newR<<32 | newI in a pairtab.Table capped at the space's state count
// (products pack two sub-2³²⁻¹ words, so they never collide with the
// table's empty marker).
//
// A DeltaMemo is a single-goroutine cache: engines obtain a private one
// via Protocol.CompileDelta (the protocol itself is never mutated, so it
// stays shareable across concurrent trials).
type DeltaMemo struct {
	delta  func(r, i uint32) (uint32, uint32) // the interpreted pipeline
	lookup []int32                            // word → id+1 (0 = unseen)
	seen   int                                // ids assigned so far
	pairs  pairtab.Table
}

// newDeltaMemo builds a memo over the given word bound around the
// interpreted fallback, its pair table capped at size ids.
func newDeltaMemo(bound uint64, size int, delta func(r, i uint32) (uint32, uint32)) *DeltaMemo {
	m := &DeltaMemo{
		delta:  delta,
		lookup: make([]int32, bound),
	}
	m.pairs.Reset(size)
	return m
}

// id returns the dense id of word w, assigning the next free id on first
// sight, or −1 for a word outside the declared space's bound (such pairs
// bypass the memo entirely).
func (m *DeltaMemo) id(w uint32) int32 {
	if int64(w) >= int64(len(m.lookup)) {
		return -1
	}
	if v := m.lookup[w]; v != 0 {
		return v - 1
	}
	m.seen++
	m.lookup[w] = int32(m.seen)
	m.pairs.Grow(m.seen)
	return int32(m.seen - 1)
}

// Delta resolves one interaction through the memo, falling back to (and
// recording) the interpreted pipeline on first sight of a pair.
func (m *DeltaMemo) Delta(r, i uint32) (uint32, uint32) {
	a := m.id(r)
	b := m.id(i)
	if a < 0 || b < 0 {
		return m.delta(r, i)
	}
	if v, ok := m.pairs.Get(a, b); ok {
		return uint32(v >> 32), uint32(v)
	}
	r2, i2 := m.delta(r, i)
	m.pairs.Put(a, b, uint64(r2)<<32|uint64(i2))
	return r2, i2
}

// CompileDelta returns a memoized transition function equivalent to Delta,
// private to the caller (one per engine — the memo is a single-goroutine
// cache), or nil when the declared space packs too many bits to index
// (compiledMaxWordBound), in which case callers stay on the interpreted
// Delta. The dense runner consults this through sim.DeltaCompiler.
func (p *Protocol) CompileDelta() func(r, i uint32) (uint32, uint32) {
	bound := p.space.WordBound()
	if bound > compiledMaxWordBound {
		return nil
	}
	return newDeltaMemo(bound, p.space.Size(), p.Delta).Delta
}
