package sim

import (
	"testing"
	"unsafe"

	"popelect/internal/core"
	"popelect/internal/rng"
)

// memRange is a half-open byte range [lo, hi) a shard writes or reads
// while the other shards write theirs.
type memRange struct {
	what   string
	lo, hi uintptr
}

func sliceRange(what string, s []int64) memRange {
	if len(s) == 0 {
		return memRange{what: what}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return memRange{what, lo, lo + uintptr(len(s))*8}
}

// shardRanges lists the memory shard sh touches during the parallel
// phases: its struct's fields up to the pad (the rng words and every
// slice header, staging ones included) and the backing arrays of its
// columns, row allocations and staged diff.
func shardRanges(sh *countsShard) []memRange {
	var _ rng.Source = sh.src // held by value: the rng words are struct fields
	lo := uintptr(unsafe.Pointer(&sh.src))
	hi := uintptr(unsafe.Pointer(&sh.miss)) + unsafe.Sizeof(sh.miss)
	return []memRange{
		{"struct fields", lo, hi},
		sliceRange("respCol", sh.respCol),
		sliceRange("poolCol", sh.poolCol),
		sliceRange("alloc", sh.alloc),
		sliceRange("diff", sh.diff),
	}
}

// sameLine reports whether two non-empty ranges share a cache line.
func sameLine(a, b memRange) bool {
	if a.lo == a.hi || b.lo == b.hi {
		return false
	}
	return a.lo/cacheLine <= (b.hi-1)/cacheLine && b.lo/cacheLine <= (a.hi-1)/cacheLine
}

func overlaps(a memRange, s []int64) bool {
	if cap(s) == 0 || a.lo == a.hi {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return a.lo < lo+uintptr(cap(s))*8 && lo < a.hi
}

// TestShardLayoutPrivateLines pins the in-batch sampler's memory layout.
// False sharing shows only as lost speed, so no trajectory test can catch
// it: after one sharded batch at each worker count, no cache line may
// hold memory of two shards (the struct pad and the arrays' trailing
// slack guarantee a gap of at least one line), and no shard column may
// alias the serial sampler's strided resp or pool arrays.
func TestShardLayoutPrivateLines(t *testing.T) {
	const n = 1 << 18
	pr := core.MustNew(core.DefaultParams(n))
	for _, w := range []int{2, 4, 8} {
		e := NewCountsEngine(pr.Words(), rng.New(uint64(w)))
		e.SetBatchPolicy(BatchPolicy{Mode: BatchAdaptive})
		// Warm up serially so the serial sampler's resp and pool exist,
		// until the census is wide enough for w shards.
		e.SetWorkers(1)
		for e.Census().Occupied() < max(parallelMinOcc, 2*w) {
			e.RunSteps(n)
		}
		if cap(e.pool) == 0 || cap(e.resp) == 0 {
			t.Fatalf("w=%d: the serial sampler never ran", w)
		}
		e.SetWorkers(w)
		e.runBatch(n / 8)
		if got := len(e.shards); got != w || e.EffectiveWorkers() != w {
			t.Fatalf("w=%d: batch ran %d shards (effective %d)", w, got, e.EffectiveWorkers())
		}
		for s := range e.shards {
			for _, a := range shardRanges(&e.shards[s]) {
				if overlaps(a, e.pool) || overlaps(a, e.resp) {
					t.Errorf("w=%d: shard %d's %s aliases the serial sampler's resp/pool", w, s, a.what)
				}
				for u := s + 1; u < w; u++ {
					for _, b := range shardRanges(&e.shards[u]) {
						if sameLine(a, b) {
							t.Errorf("w=%d: shard %d's %s [%#x, %#x) and shard %d's %s [%#x, %#x) share a cache line",
								w, s, a.what, a.lo, a.hi, u, b.what, b.lo, b.hi)
						}
					}
				}
			}
		}
	}
}
