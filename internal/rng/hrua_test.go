package rng

import (
	"fmt"
	"math"
	"testing"
)

// TestHRUARatioMatchesLogPMF checks hruaRatio, the product of one-step pmf
// ratios that decides HRUA proposals near the mode, against an
// independent sum of per-factor logarithms, at every z within hruaSpan of
// the mode and populations from 10² to 10¹⁰. The product must stay finite
// and positive: at N = 10¹⁰ a factor's numerator alone is near 10²⁰.
func TestHRUARatioMatchesLogPMF(t *testing.T) {
	// (a, b, m) as hypergeometricHRUA sees them: a ≤ b the smaller and
	// larger class, m ≤ (a+b)/2 the oriented sample.
	cases := []struct{ a, b, m int64 }{
		{50, 50, 50},
		{45, 55, 20},
		{5000, 5000, 5000},
		{3000, 7000, 100},
		{500_000, 500_000, 500_000},
		{20_000, 980_000, 15},
		{50_000_000, 50_000_000, 50_000_000},
		{1_000_000, 99_000_000, 3000},
		{2_600_000, 97_400_000, 1000},
		{5_000_000_000, 5_000_000_000, 5_000_000_000},
		{4_000_000_000, 6_000_000_000, 1_000_000_000},
		{1_000_000, 9_999_000_000, 1024},
		{5_000_000_000, 5_000_000_000, 11},
	}
	for _, c := range cases {
		n := c.a + c.b
		mode := int64(float64(c.m+1) * float64(c.a+1) / float64(n+2))
		// ln f(k+1) − ln f(k), one log per factor.
		logStep := func(k int64) float64 {
			return math.Log(float64(c.a-k)) + math.Log(float64(c.m-k)) -
				math.Log(float64(k+1)) - math.Log(float64(c.b-c.m+k+1))
		}
		lo := max(0, mode-hruaSpan)
		hi := min(min(c.a, c.m), mode+hruaSpan)
		for z := lo; z <= hi; z++ {
			r := hruaRatio(z, mode, c.a, c.b, c.m)
			if r == 0 || math.IsInf(r, 0) || math.IsNaN(r) {
				t.Fatalf("(%d,%d,%d) z=%d mode=%d: ratio %v", c.a, c.b, c.m, z, mode, r)
			}
			ls := 0.0
			for k := mode; k < z; k++ {
				ls += logStep(k)
			}
			for k := z; k < mode; k++ {
				ls -= logStep(k)
			}
			if d := math.Abs(r/math.Exp(ls) - 1); d > 1e-12 {
				t.Errorf("(%d,%d,%d) z=%d mode=%d: ratio %v, log sum gives %v (rel. error %.2g)",
					c.a, c.b, c.m, z, mode, r, math.Exp(ls), d)
			}
		}
	}
}

// TestHRUAChiSquareAcrossSpan compares HRUA's histogram with the exact
// pmf on shapes whose standard deviation is comparable to hruaSpan, so
// that one distribution is served partly by the pmf-ratio product and
// partly by the log-factorial fallback, up to N ≈ 10¹⁰. Its first cases
// are small populations with σ of one to three, where a one-step ratio is
// far from 1 and an off-by-one in the product moves the law visibly; at
// σ ≥ 16 the step next to the mode is within 1% of 1.
func TestHRUAChiSquareAcrossSpan(t *testing.T) {
	s := New(131)
	cases := []struct{ good, bad, sample int64 }{
		{12, 400, 40},                         // σ ≈ 1, mode 1
		{30, 30, 20},                          // σ ≈ 1.8
		{60, 90, 40},                          // σ ≈ 2.7
		{5000, 5000, 1300},                    // σ ≈ 17
		{1 << 20, 1 << 24, 10_000},            // σ ≈ 24
		{1_000_000, 99_000_000, 100_000},      // σ ≈ 31
		{1_000_000, 99_000_000, 240_000},      // σ ≈ 49
		{4096, 10_000_000_000, 5_000_000_000}, // σ ≈ 32, N ≈ 10¹⁰
		{8000, 9_999_992_000, 1_000_000_000},  // σ ≈ 27, N ≈ 10¹⁰
	}
	straddle := 0
	for _, c := range cases {
		nTot := float64(c.good + c.bad)
		mean := float64(c.sample) * float64(c.good) / nTot
		sd := math.Sqrt(mean * (float64(c.bad) / nTot) * (nTot - float64(c.sample)) / (nTot - 1))
		if sd >= hruaSpan/2 && sd <= 2*hruaSpan {
			straddle++
		}
		name := fmt.Sprintf("Hypergeometric(%d,%d,%d)", c.good, c.bad, c.sample)
		lo := max(0, int64(mean-4*sd))
		hi := int64(mean+4*sd) + 1
		chiSquareCheck(t, name,
			func() int64 { return s.Hypergeometric(c.good, c.bad, c.sample) },
			func(k int64) float64 { return hypergeometricPMF(c.good, c.bad, c.sample, k) },
			60000, lo, hi)
	}
	if straddle < 5 {
		t.Fatalf("only %d cases have σ within a factor 2 of hruaSpan = %d", straddle, hruaSpan)
	}
}

// BenchmarkHypergeometric draws on the mix of a GSU19 run at n = 10⁸ on
// the counts engine: the oriented sample m is at most 32 in 27% of HRUA
// draws, at most 128 in 25%, at most 1024 in 26%, at most 65536 in 20%
// and larger in 2%. Within a band m is log-uniform, and the class it is
// drawn against is log-uniform in [m, n/2].
func BenchmarkHypergeometric(b *testing.B) {
	const n = 100_000_000
	bands := []struct {
		lo, hi int64
		draws  int
	}{
		{11, 32, 27},
		{33, 128, 25},
		{129, 1024, 26},
		{1025, 65536, 20},
		{65537, 1 << 22, 2},
	}
	logUniform := func(s *Source, lo, hi int64) int64 {
		return int64(float64(lo) * math.Exp(s.Float64()*math.Log(float64(hi)/float64(lo))))
	}
	setup := New(1)
	type draw struct{ good, bad, sample int64 }
	var mix []draw
	for _, band := range bands {
		for range band.draws {
			m := logUniform(setup, band.lo, band.hi)
			good := logUniform(setup, m, n/2)
			mix = append(mix, draw{good, n - good, m})
		}
	}
	s := New(2)
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := mix[i%len(mix)]
		sink += s.Hypergeometric(d.good, d.bad, d.sample)
	}
	_ = sink
}
