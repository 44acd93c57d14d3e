// Package pairtab is the transition memo both simulation hot loops share:
// a table from ordered pairs of dense state ids to a packed product,
// typically the two successor ids or words of one interaction.
//
// Ids below the stride resolve through a flat stride×stride slice indexed
// a·stride + b, with ^0 marking an empty cell, so a lookup costs one load.
// The stride starts at 256 and doubles as owners discover ids, up to a cap;
// pairs with an id at or past the cap go to an overflow map, which keeps the
// hot, early-discovered pairs table-served when a run outgrows the table.
// Growing drops every memoized entry: the memo is a pure cache that owners
// refill lazily from their transition function.
package pairtab

// MaxStride is the stride budget every table shares: 2896² entries × 8 B ≈
// 64 MiB. Owners cap below it at their own bound on how many ids can exist,
// so small state spaces get exactly-sized tables, and GSU19's ~2500
// discovered states at n = 10⁹ stay fully table-served.
const MaxStride = 2896

const (
	empty     = ^uint64(0)
	minStride = 1 << 8
)

// Table is a stride-doubling id-pair memo. The zero value holds nothing and
// has cap 0; call Reset before use. A Table is single-writer: Get may run
// concurrently with other Gets, but not with Grow, Put or Reset.
type Table struct {
	tab      []uint64 // stride×stride packed products, empty = ^0
	stride   int
	cap      int
	overflow map[uint64]uint64
}

// Reset drops every entry and caps the stride at min(bound, MaxStride),
// where bound is the owner's upper bound on the number of ids. The table
// itself is allocated by the next Grow.
func (t *Table) Reset(bound int) {
	t.tab = nil
	t.stride = 0
	t.cap = min(bound, MaxStride)
	t.overflow = nil
}

// Grow sizes the table for n discovered ids: the stride doubles from 256
// until it covers n or reaches the cap. A grown table starts empty.
func (t *Table) Grow(n int) {
	stride := minStride
	for stride < n {
		stride <<= 1
	}
	stride = min(stride, t.cap)
	if stride <= t.stride {
		return
	}
	t.tab = make([]uint64, stride*stride)
	for i := range t.tab {
		t.tab[i] = empty
	}
	t.stride = stride
}

// Stride returns the table's current side length.
func (t *Table) Stride() int { return t.stride }

// Get returns the product memoized for the id pair (a, b), and whether
// there is one. It stays small enough to inline, as it does into the
// compiled dense memo: moving the map lookup into an out-of-line helper
// made the call survive and cost the dense GS18 loop about 6%.
func (t *Table) Get(a, b int32) (uint64, bool) {
	if s := t.stride; int(a) < s && int(b) < s {
		v := t.tab[int(a)*s+int(b)]
		return v, v != empty
	}
	v, ok := t.overflow[key(a, b)]
	return v, ok
}

// Put memoizes product v for the id pair (a, b). v must not be ^0, the
// empty marker.
func (t *Table) Put(a, b int32, v uint64) {
	if s := t.stride; int(a) < s && int(b) < s {
		t.tab[int(a)*s+int(b)] = v
		return
	}
	if t.overflow == nil {
		t.overflow = make(map[uint64]uint64)
	}
	t.overflow[key(a, b)] = v
}

func key(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }
