package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs out of 100", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	const seed = 7
	a := NewStream(seed, 0)
	b := NewStream(seed, 1)
	c := NewStream(seed, 2)
	same := 0
	for i := 0; i < 100; i++ {
		x, y, z := a.Uint64(), b.Uint64(), c.Uint64()
		if x == y || y == z || x == z {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams overlapped on %d of 100 outputs", same)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(99, 5)
	b := NewStream(99, 5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) must reproduce the same sequence")
		}
	}
}

func TestSplitDeterministicAndPure(t *testing.T) {
	// Split is a pure function of (parent state, shard): repeated calls with
	// the same shard return identical children, and the parent's own
	// sequence is unperturbed.
	parent := New(42)
	ref := New(42)
	c1 := parent.Split(3)
	c2 := parent.Split(3)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split with the same shard must reproduce the same child sequence")
		}
	}
	for i := 0; i < 100; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatalf("step %d: Split advanced the parent generator", i)
		}
	}
}

// TestSplitAllocatesNothing pins Split's value return: the counts engine
// splits one stream per shard on every sharded batch, so a heap-allocated
// child would be w pieces of garbage per batch.
func TestSplitAllocatesNothing(t *testing.T) {
	parent := New(42)
	var child Source
	if allocs := testing.AllocsPerRun(100, func() { child = parent.Split(3) }); allocs != 0 {
		t.Fatalf("Split allocated %v times per call, want 0", allocs)
	}
	if child == (Source{}) {
		t.Fatal("Split returned the all-zero state")
	}
}

func TestSplitShardsDiffer(t *testing.T) {
	parent := New(7)
	a := parent.Split(0)
	b := parent.Split(1)
	c := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		x, y, z := a.Uint64(), b.Uint64(), c.Uint64()
		if x == y || y == z || x == z {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split shards overlapped on %d of 100 outputs", same)
	}
}

func TestSplitDiffersFromParent(t *testing.T) {
	// Shard 0 must not alias the parent stream, and children split from
	// different parent states must differ.
	parent := New(9)
	child := parent.Split(0)
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("shard-0 child overlapped the parent on %d of 100 outputs", same)
	}
	// parent has advanced 100 draws: splitting the same shard now must give
	// a different child than before (state-dependence).
	child2 := parent.Split(0)
	child.Seed(0) // reuse var; reseed child from scratch for comparison below
	first := New(9).Split(0)
	diff := false
	for i := 0; i < 100; i++ {
		if first.Uint64() != child2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Split must depend on the parent's current state, not only its seed")
	}
}

func TestSeedReset(t *testing.T) {
	s := New(3)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(3)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after reseed, step %d: got %d want %d", i, got, first[i])
		}
	}
}

func TestZeroStateGuard(t *testing.T) {
	var s Source
	s.Seed(0)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		t.Fatal("seeding with 0 must not leave the all-zero state")
	}
	// The generator must still produce varied output.
	x, y := s.Uint64(), s.Uint64()
	if x == y {
		t.Fatalf("degenerate output after zero seed: %d repeated", x)
	}
}

func TestUint64Bits(t *testing.T) {
	// Every bit position should be set roughly half the time.
	s := New(123)
	const trials = 4096
	var counts [64]int
	for i := 0; i < trials; i++ {
		x := s.Uint64()
		for b := 0; b < 64; b++ {
			if x&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / trials
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("bit %d set fraction %.3f, want ~0.5", b, frac)
		}
	}
}

func TestQuickDeterministicPairs(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkPair(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		x, y := s.Pair(1 << 20)
		sink += x + y
	}
	_ = sink
}
