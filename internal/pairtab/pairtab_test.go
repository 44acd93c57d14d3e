package pairtab

import "testing"

func TestTablePath(t *testing.T) {
	var tab Table
	tab.Reset(1000)
	tab.Grow(1)
	if got := tab.Stride(); got != minStride {
		t.Fatalf("stride %d after the first id, want %d", got, minStride)
	}
	if _, ok := tab.Get(3, 5); ok {
		t.Fatal("empty table reports a hit")
	}
	tab.Put(3, 5, 7<<32|9)
	if v, ok := tab.Get(3, 5); !ok || v != 7<<32|9 {
		t.Fatalf("Get(3, 5) = (%#x, %v), want (%#x, true)", v, ok, uint64(7<<32|9))
	}
	if _, ok := tab.Get(5, 3); ok {
		t.Fatal("pairs are ordered: (5, 3) must miss")
	}
	if tab.overflow != nil {
		t.Fatal("a table-range pair reached the overflow map")
	}
	// A zero product is a value, not the empty marker.
	tab.Put(0, 0, 0)
	if v, ok := tab.Get(0, 0); !ok || v != 0 {
		t.Fatalf("Get(0, 0) = (%#x, %v), want (0, true)", v, ok)
	}
}

func TestOverflowAtCap(t *testing.T) {
	const bound = 300
	var tab Table
	tab.Reset(bound)
	tab.Grow(bound + 50)
	if got := tab.Stride(); got != bound {
		t.Fatalf("stride %d, want the cap %d", got, bound)
	}
	tab.Grow(bound + 100)
	if got := tab.Stride(); got != bound {
		t.Fatalf("stride %d after growing past the cap, want %d", got, bound)
	}
	tab.Put(2, 4, 11)
	tab.Put(bound+10, 4, 12)
	tab.Put(4, bound, 13)
	if len(tab.overflow) != 2 {
		t.Fatalf("overflow holds %d entries, want the 2 pairs past the cap", len(tab.overflow))
	}
	for _, c := range []struct {
		a, b int32
		v    uint64
	}{{2, 4, 11}, {bound + 10, 4, 12}, {4, bound, 13}} {
		if v, ok := tab.Get(c.a, c.b); !ok || v != c.v {
			t.Fatalf("Get(%d, %d) = (%d, %v), want (%d, true)", c.a, c.b, v, ok, c.v)
		}
	}
	if _, ok := tab.Get(bound, 4); ok {
		t.Fatal("unmemoized overflow pair reports a hit")
	}
	// The budget caps an owner whose bound exceeds it.
	var big Table
	big.Reset(MaxStride + 100)
	big.Grow(MaxStride + 100)
	if got := big.Stride(); got != MaxStride {
		t.Fatalf("stride %d, want the budget %d", got, MaxStride)
	}
}

func TestGrowthDropsEntries(t *testing.T) {
	var tab Table
	tab.Reset(MaxStride)
	tab.Grow(1)
	tab.Put(1, 2, 3)
	tab.Grow(minStride) // already covered: entries stay
	if _, ok := tab.Get(1, 2); !ok {
		t.Fatal("Grow within the stride dropped an entry")
	}
	tab.Grow(minStride + 1)
	if got := tab.Stride(); got != 2*minStride {
		t.Fatalf("stride %d, want %d", got, 2*minStride)
	}
	if _, ok := tab.Get(1, 2); ok {
		t.Fatal("entry survived a resize; growth must start empty")
	}
	// Re-memoized after growth, at the new stride's index.
	tab.Put(1, 2, 4)
	tab.Put(minStride, 1, 5)
	if v, ok := tab.Get(1, 2); !ok || v != 4 {
		t.Fatalf("Get(1, 2) = (%d, %v) after re-memoizing, want (4, true)", v, ok)
	}
	if v, ok := tab.Get(minStride, 1); !ok || v != 5 {
		t.Fatalf("Get(%d, 1) = (%d, %v), want (5, true)", minStride, v, ok)
	}
	if tab.overflow != nil {
		t.Fatal("pairs within the grown stride reached the overflow map")
	}
}

func TestReset(t *testing.T) {
	var tab Table
	tab.Reset(10)
	tab.Grow(10)
	tab.Put(1, 1, 1)
	tab.Put(20, 1, 2)
	tab.Reset(600)
	if got := tab.Stride(); got != 0 {
		t.Fatalf("stride %d after Reset, want 0 until the next Grow", got)
	}
	for _, p := range [][2]int32{{1, 1}, {20, 1}} {
		if _, ok := tab.Get(p[0], p[1]); ok {
			t.Fatalf("pair %v survived Reset", p)
		}
	}
	tab.Grow(500)
	if got := tab.Stride(); got != 512 {
		t.Fatalf("stride %d under the new cap 600, want 512", got)
	}
}
