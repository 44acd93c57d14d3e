package rng

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestUintnRange(t *testing.T) {
	s := New(5)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 33} {
		for i := 0; i < 1000; i++ {
			if v := s.Uintn(n); v >= n {
				t.Fatalf("Uintn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUintnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uintn(0) must panic")
		}
	}()
	New(1).Uintn(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) must panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

// TestUintnUniform checks uniformity of Uintn with a chi-square test at a
// generous threshold: for k=16 cells the 99.9%-quantile of chi2(15) is ~37.7.
func TestUintnUniform(t *testing.T) {
	s := New(17)
	const k = 16
	const trials = 160000
	var counts [k]int
	for i := 0; i < trials; i++ {
		counts[s.Uintn(k)]++
	}
	expected := float64(trials) / k
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("chi-square = %.2f exceeds 37.7; counts = %v", chi2, counts)
	}
}

func TestPairProperties(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for _, n := range []int{2, 3, 10, 1000} {
			a, b := s.Pair(n)
			if a == b || a < 0 || b < 0 || a >= n || b >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPairUniformOverOrderedPairs(t *testing.T) {
	// For n = 4 there are 12 ordered pairs; each should appear with
	// frequency 1/12.
	s := New(23)
	const n = 4
	const trials = 120000
	counts := map[[2]int]int{}
	for i := 0; i < trials; i++ {
		a, b := s.Pair(n)
		counts[[2]int{a, b}]++
	}
	if len(counts) != n*(n-1) {
		t.Fatalf("observed %d distinct ordered pairs, want %d", len(counts), n*(n-1))
	}
	expected := float64(trials) / float64(n*(n-1))
	for pair, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("pair %v count %d deviates from expectation %.0f", pair, c, expected)
		}
	}
}

func TestPairPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pair(1) must panic")
		}
	}()
	New(1).Pair(1)
}

func TestFloat64Range(t *testing.T) {
	s := New(31)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	s := New(37)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		hits := 0
		const trials = 100000
		for i := 0; i < trials; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) mean %.4f", p, got)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(41)
	p := 0.25
	const trials = 50000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += s.Geometric(p)
	}
	mean := float64(sum) / trials
	want := (1 - p) / p // mean of geometric counting failures
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean %.3f, want %.3f", p, mean, want)
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Geometric(%v) must panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(43)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		q := append([]int(nil), p...)
		sort.Ints(q)
		for i, v := range q {
			if v != i {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(47)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed the multiset: %v", xs)
	}
}

func TestCoinFair(t *testing.T) {
	s := New(53)
	heads := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if s.Coin() {
			heads++
		}
	}
	frac := float64(heads) / trials
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("Coin heads fraction %.4f", frac)
	}
}

// momentCheck verifies that the empirical mean and variance of draws are
// within tol standard errors of the analytic values.
func momentCheck(t *testing.T, name string, draw func() float64, n int, wantMean, wantVar float64) {
	t.Helper()
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := draw()
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	seMean := math.Sqrt(wantVar / float64(n))
	if math.Abs(mean-wantMean) > 6*seMean+1e-9 {
		t.Errorf("%s: mean %.4f, want %.4f (±%.4f)", name, mean, wantMean, 6*seMean)
	}
	// The variance of the sample variance is roughly 2·σ⁴/n for
	// near-normal summands; allow a generous multiple.
	seVar := wantVar * math.Sqrt(2/float64(n))
	if math.Abs(variance-wantVar) > 10*seVar+1e-9 {
		t.Errorf("%s: variance %.4f, want %.4f (±%.4f)", name, variance, wantVar, 10*seVar)
	}
}

func TestBinomialMoments(t *testing.T) {
	s := New(101)
	cases := []struct {
		n int64
		p float64
	}{
		{1, 0.5},
		{10, 0.1},
		{100, 0.01},   // inversion regime
		{100, 0.4},    // BTPE regime
		{100, 0.9},    // symmetry + BTPE
		{10000, 0.37}, // BTPE, large n
		{1 << 30, 1e-7},
		{1 << 40, 0.25},
	}
	for _, c := range cases {
		name := fmt.Sprintf("Binomial(%d,%g)", c.n, c.p)
		momentCheck(t, name, func() float64 { return float64(s.Binomial(c.n, c.p)) },
			20000, float64(c.n)*c.p, float64(c.n)*c.p*(1-c.p))
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	s := New(103)
	if x := s.Binomial(0, 0.3); x != 0 {
		t.Fatalf("Binomial(0, .3) = %d", x)
	}
	if x := s.Binomial(50, 0); x != 0 {
		t.Fatalf("Binomial(50, 0) = %d", x)
	}
	if x := s.Binomial(50, 1); x != 50 {
		t.Fatalf("Binomial(50, 1) = %d", x)
	}
	for i := 0; i < 1000; i++ {
		if x := s.Binomial(7, 0.6); x < 0 || x > 7 {
			t.Fatalf("Binomial(7, .6) = %d out of range", x)
		}
	}
}

// binomialPMF returns P[Bin(n, p) = k].
func binomialPMF(n int64, p float64, k int64) float64 {
	lg := func(v int64) float64 { l, _ := math.Lgamma(float64(v)); return l }
	return math.Exp(lg(n+1) - lg(k+1) - lg(n-k+1) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// hypergeometricPMF returns P[X = k] for X ~ Hypergeometric(good, bad, sample).
func hypergeometricPMF(good, bad, sample, k int64) float64 {
	lg := func(v int64) float64 { l, _ := math.Lgamma(float64(v)); return l }
	if k < 0 || k > good || sample-k > bad || sample-k < 0 {
		return 0
	}
	return math.Exp(lg(good+1) - lg(k+1) - lg(good-k+1) +
		lg(bad+1) - lg(sample-k+1) - lg(bad-sample+k+1) -
		(lg(good+bad+1) - lg(sample+1) - lg(good+bad-sample+1)))
}

// chiSquareCheck draws n samples and compares the histogram over
// [lo, hi] (everything outside pooled into the edge bins) against the pmf
// with a chi-square test at a very conservative threshold.
func chiSquareCheck(t *testing.T, name string, draw func() int64, pmf func(int64) float64, n int, lo, hi int64) {
	t.Helper()
	bins := int(hi - lo + 1)
	obs := make([]float64, bins)
	for i := 0; i < n; i++ {
		x := draw()
		switch {
		case x < lo:
			obs[0]++
		case x > hi:
			obs[bins-1]++
		default:
			obs[x-lo]++
		}
	}
	expected := make([]float64, bins)
	for k := lo; k <= hi; k++ {
		expected[k-lo] = pmf(k) * float64(n)
	}
	// Pool the tails into the edge bins.
	tailLo, tailHi := 0.0, 0.0
	for k := lo - 200; k < lo; k++ {
		tailLo += pmf(k)
	}
	for k := hi + 1; k <= hi+200; k++ {
		tailHi += pmf(k)
	}
	expected[0] += tailLo * float64(n)
	expected[bins-1] += tailHi * float64(n)
	chi2, df := 0.0, 0
	for i := range obs {
		if expected[i] < 5 {
			continue // skip unstable tiny-expectation bins
		}
		d := obs[i] - expected[i]
		chi2 += d * d / expected[i]
		df++
	}
	if df < 3 {
		t.Fatalf("%s: degenerate chi-square setup (df=%d)", name, df)
	}
	// For df degrees of freedom the statistic has mean df and std
	// sqrt(2·df); 6 sigma keeps the false-failure rate negligible while
	// still catching a mis-transcribed sampler immediately.
	limit := float64(df) + 6*math.Sqrt(2*float64(df))
	if chi2 > limit {
		t.Errorf("%s: chi-square %.1f over %d bins exceeds %.1f", name, chi2, df, limit)
	}
}

func TestBinomialChiSquare(t *testing.T) {
	s := New(107)
	cases := []struct {
		n int64
		p float64
	}{
		{40, 0.3},     // inversion
		{400, 0.25},   // BTPE
		{5000, 0.013}, // BTPE near the threshold
		{300, 0.77},   // symmetry path
	}
	for _, c := range cases {
		mean := float64(c.n) * c.p
		sd := math.Sqrt(mean * (1 - c.p))
		lo := int64(mean - 4*sd)
		if lo < 0 {
			lo = 0
		}
		hi := int64(mean + 4*sd)
		if hi > c.n {
			hi = c.n
		}
		name := fmt.Sprintf("Binomial(%d,%g)", c.n, c.p)
		chiSquareCheck(t, name,
			func() int64 { return s.Binomial(c.n, c.p) },
			func(k int64) float64 { return binomialPMF(c.n, c.p, k) },
			60000, lo, hi)
	}
}

func TestHypergeometricMoments(t *testing.T) {
	s := New(109)
	cases := []struct{ good, bad, sample int64 }{
		{5, 5, 3},                  // inversion
		{50, 450, 8},               // inversion
		{100, 100, 50},             // HRUA
		{1000, 9000, 500},          // HRUA
		{1 << 30, 1 << 31, 100000}, // HRUA, huge population
		{300, 7, 200},              // more good than bad
	}
	for _, c := range cases {
		nTot := float64(c.good + c.bad)
		mean := float64(c.sample) * float64(c.good) / nTot
		variance := mean * (float64(c.bad) / nTot) * (nTot - float64(c.sample)) / (nTot - 1)
		name := fmt.Sprintf("Hypergeometric(%d,%d,%d)", c.good, c.bad, c.sample)
		momentCheck(t, name,
			func() float64 { return float64(s.Hypergeometric(c.good, c.bad, c.sample)) },
			20000, mean, variance)
	}
}

func TestHypergeometricChiSquare(t *testing.T) {
	s := New(113)
	cases := []struct{ good, bad, sample int64 }{
		{30, 70, 8},      // inversion
		{200, 300, 100},  // HRUA
		{2000, 8000, 40}, // HRUA, small sample fraction
		// Variance ≥ 25 at the shapes of counts-engine batch draws: a
		// rare state against n = 10⁸, a large one against a short
		// batch, and a rare state against a long batch at n = 10⁵.
		{1000, 100_000_000, 2_600_000},
		{1_000_000, 100_000_000, 3000},
		{400, 100_000, 8000},
	}
	for _, c := range cases {
		nTot := float64(c.good + c.bad)
		mean := float64(c.sample) * float64(c.good) / nTot
		sd := math.Sqrt(mean*(float64(c.bad)/nTot)*(nTot-float64(c.sample))/(nTot-1)) + 1
		lo := int64(mean - 4*sd)
		if lo < 0 {
			lo = 0
		}
		hi := int64(mean + 4*sd)
		name := fmt.Sprintf("Hypergeometric(%d,%d,%d)", c.good, c.bad, c.sample)
		chiSquareCheck(t, name,
			func() int64 { return s.Hypergeometric(c.good, c.bad, c.sample) },
			func(k int64) float64 { return hypergeometricPMF(c.good, c.bad, c.sample, k) },
			60000, lo, hi)
	}
}

func TestHypergeometricRange(t *testing.T) {
	s := New(127)
	for i := 0; i < 5000; i++ {
		x := s.Hypergeometric(12, 7, 15)
		// max(0, sample-bad) ≤ x ≤ min(good, sample)
		if x < 8 || x > 12 {
			t.Fatalf("Hypergeometric(12, 7, 15) = %d out of [8, 12]", x)
		}
	}
	if x := s.Hypergeometric(5, 5, 0); x != 0 {
		t.Fatalf("sample=0 gave %d", x)
	}
	if x := s.Hypergeometric(0, 9, 4); x != 0 {
		t.Fatalf("good=0 gave %d", x)
	}
	if x := s.Hypergeometric(9, 0, 4); x != 4 {
		t.Fatalf("bad=0 gave %d", x)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	s := New(131)
	weights := []float64{5, 0, 1, 3, 0.5, 0.5}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != len(weights) {
		t.Fatalf("N = %d", a.N())
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(s)]++
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		se := math.Sqrt(want*(1-want)/draws) + 1e-12
		if math.Abs(got-want) > 6*se {
			t.Errorf("category %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a, err := NewAlias([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	s := New(137)
	for i := 0; i < 100; i++ {
		if a.Sample(s) != 0 {
			t.Fatal("single-category alias must always return 0")
		}
	}
}

// TestAliasRebuildMatchesNew pins Rebuild to NewAlias's construction: a
// table rebuilt in place over any weights — larger, smaller, after a
// rejected input — equals a fresh one, and once its storage has grown a
// rebuild allocates nothing.
func TestAliasRebuildMatchesNew(t *testing.T) {
	var a Alias
	for _, weights := range [][]float64{
		{5, 0, 1, 3, 0.5, 0.5},
		{2, 7},
		{1, 1, 1, 1, 1, 1, 1, 9, 0, 4},
		{42},
	} {
		if err := a.Rebuild(weights); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewAlias(weights)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.prob, fresh.prob) || !slices.Equal(a.alias, fresh.alias) {
			t.Fatalf("Rebuild(%v) = %v/%v, NewAlias %v/%v", weights, a.prob, a.alias, fresh.prob, fresh.alias)
		}
		before := slices.Clone(a.prob)
		if err := a.Rebuild([]float64{1, -1}); err == nil {
			t.Fatal("Rebuild with a negative weight must fail")
		}
		if !slices.Equal(a.prob, before) {
			t.Fatal("failed Rebuild modified the table")
		}
	}
	w := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if allocs := testing.AllocsPerRun(10, func() { a.Rebuild(w) }); allocs != 0 {
		t.Fatalf("Rebuild allocated %.0f times", allocs)
	}
}

func TestAliasErrors(t *testing.T) {
	for _, weights := range [][]float64{
		{},
		{0, 0},
		{1, -1},
		{math.NaN()},
		{math.Inf(1)},
	} {
		if _, err := NewAlias(weights); err == nil {
			t.Errorf("NewAlias(%v) must fail", weights)
		}
	}
}

// TestHypergeometricConcurrentShards exercises the shared read-only
// log-factorial table from many goroutines at once — the access pattern of
// the sharded counts batch sampler, where every shard draws
// hypergeometric variates concurrently. The CI race job runs this under
// -race; a lazily-initialized table would fail it.
func TestHypergeometricConcurrentShards(t *testing.T) {
	parent := New(99)
	done := make(chan int64)
	for s := 0; s < 8; s++ {
		go func(src *Source) {
			var sum int64
			for i := 0; i < 2000; i++ {
				// Mix small (table) and large (Stirling) arguments.
				sum += src.Hypergeometric(4000, 4000, 2000)
				sum += src.Hypergeometric(1<<20, 1<<21, 1<<19)
			}
			done <- sum
		}(parent.Split(uint64(s)))
	}
	for s := 0; s < 8; s++ {
		if sum := <-done; sum <= 0 {
			t.Fatalf("shard returned nonpositive draw sum %d", sum)
		}
	}
}
