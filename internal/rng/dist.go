package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Uintn returns a uniform pseudo-random integer in [0, n). It panics if
// n == 0. The implementation is Lemire's multiply-shift method with the
// near-divisionless rejection step, which avoids a modulo in the common case.
func (s *Source) Uintn(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uintn with n == 0")
	}
	x := s.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Pair returns an ordered pair (a, b) of distinct indices drawn uniformly at
// random from [0, n) x [0, n), a != b. This is the random scheduler of the
// population-protocol model: a is the responder, b the initiator. It panics
// if n < 2.
func (s *Source) Pair(n int) (a, b int) {
	if n < 2 {
		panic("rng: Pair with n < 2")
	}
	a = int(s.Uintn(uint64(n)))
	b = int(s.Uintn(uint64(n - 1)))
	if b >= a {
		b++
	}
	return a, b
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Coin returns a fair pseudo-random bit.
func (s *Source) Coin() bool {
	return s.Uint64()&1 == 1
}

// Geometric returns the number of failures before the first success in
// independent Bernoulli(p) trials, i.e. a sample of the geometric
// distribution with support {0, 1, 2, ...}. It panics if p <= 0 or p > 1.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric with p out of (0, 1]")
	}
	k := 0
	for !s.Bernoulli(p) {
		k++
	}
	return k
}

// Binomial returns a sample of the binomial distribution Bin(n, p): the
// number of successes in n independent Bernoulli(p) trials. It panics if
// n < 0 or p is outside [0, 1].
//
// Small means use unrolled inversion; large means use the BTPE
// rejection algorithm of Kachitvichyanukul & Schmeiser (1988), so a draw
// takes O(1) expected time regardless of n — the property the counts
// simulation backend depends on when it splits billion-interaction batches
// into per-state-class counts.
func (s *Source) Binomial(n int64, p float64) int64 {
	switch {
	case n < 0 || math.IsNaN(p) || p < 0 || p > 1:
		panic(fmt.Sprintf("rng: Binomial(%d, %v) out of domain", n, p))
	case n == 0 || p == 0:
		return 0
	case p == 1:
		return n
	case p > 0.5:
		return n - s.Binomial(n, 1-p)
	case float64(n)*p <= 30:
		return s.binomialInv(n, p)
	}
	return s.binomialBTPE(n, p)
}

// binomialInv is the BINV inversion algorithm, for n·p ≤ 30 and p ≤ 1/2.
func (s *Source) binomialInv(n int64, p float64) int64 {
	q := 1 - p
	qn := math.Exp(float64(n) * math.Log(q))
	sp := p / q
	a := float64(n+1) * sp
	for {
		r := qn
		u := s.Float64()
		var x int64
		for u > r {
			u -= r
			x++
			if x > n {
				// Floating-point underflow exhausted the tail mass
				// before u; restart (astronomically rare).
				x = -1
				break
			}
			r *= a/float64(x) - sp
		}
		if x >= 0 {
			return x
		}
	}
}

// binomialBTPE is the BTPE rejection algorithm, for n·p > 30 and p ≤ 1/2.
// Region constants and the squeeze/Stirling acceptance steps follow
// Kachitvichyanukul & Schmeiser, "Binomial random variate generation",
// CACM 31(2), 1988.
func (s *Source) binomialBTPE(n int64, p float64) int64 {
	r := p
	q := 1 - r
	fm := float64(n)*r + r
	m := int64(fm)
	nrq := float64(n) * r * q
	p1 := math.Floor(2.195*math.Sqrt(nrq)-4.6*q) + 0.5
	xm := float64(m) + 0.5
	xl := xm - p1
	xr := xm + p1
	c := 0.134 + 20.5/(15.3+float64(m))
	a := (fm - xl) / (fm - xl*r)
	lamL := a * (1 + a/2)
	a = (xr - fm) / (xr * q)
	lamR := a * (1 + a/2)
	p2 := p1 * (1 + 2*c)
	p3 := p2 + c/lamL
	p4 := p3 + c/lamR

	for {
		u := s.Float64() * p4
		v := s.Float64()
		var y int64
		switch {
		case u <= p1:
			// Triangular central region: accept immediately.
			return int64(math.Floor(xm - p1*v + u))
		case u <= p2:
			// Parallelogram region.
			x := xl + (u-p1)/c
			v = v*c + 1 - math.Abs(float64(m)-x+0.5)/p1
			if v > 1 {
				continue
			}
			y = int64(math.Floor(x))
		case u <= p3:
			// Left exponential tail.
			y = int64(math.Floor(xl + math.Log(v)/lamL))
			if y < 0 {
				continue
			}
			v = v * (u - p2) * lamL
		default:
			// Right exponential tail.
			y = int64(math.Floor(xr - math.Log(v)/lamR))
			if y > n {
				continue
			}
			v = v * (u - p3) * lamR
		}

		k := y - m
		if k < 0 {
			k = -k
		}
		kf := float64(k)
		if kf <= 20 || kf >= nrq/2-1 {
			// Evaluate f(y)/f(m) explicitly.
			sp := r / q
			aa := sp * float64(n+1)
			f := 1.0
			switch {
			case m < y:
				for i := m + 1; i <= y; i++ {
					f *= aa/float64(i) - sp
				}
			case m > y:
				for i := y + 1; i <= m; i++ {
					f /= aa/float64(i) - sp
				}
			}
			if v <= f {
				return y
			}
			continue
		}

		// Squeeze around the normal approximation.
		rho := (kf / nrq) * ((kf*(kf/3+0.625)+1.0/6)/nrq + 0.5)
		t := -kf * kf / (2 * nrq)
		logV := math.Log(v)
		if logV < t-rho {
			return y
		}
		if logV > t+rho {
			continue
		}

		// Final comparison against the Stirling-series expansion of
		// log(f(y)/f(m)).
		x1 := float64(y + 1)
		f1 := float64(m + 1)
		z := float64(n + 1 - m)
		w := float64(n - y + 1)
		bound := xm*math.Log(f1/x1) + (float64(n-m)+0.5)*math.Log(z/w) +
			float64(y-m)*math.Log(w*r/(x1*q)) +
			stirlingCorrection(f1) + stirlingCorrection(z) +
			stirlingCorrection(x1) + stirlingCorrection(w)
		if logV <= bound {
			return y
		}
	}
}

// stirlingCorrection evaluates the truncated Stirling series
// 1/(12v) − 1/(360v³) + 1/(1260v⁵) − 1/(1680v⁷) + 1/(1188v⁹) used by the
// BTPE acceptance step (coefficients over the common denominator 166320).
func stirlingCorrection(v float64) float64 {
	v2 := v * v
	return (13860 - (462-(132-(99-140/v2)/v2)/v2)/v2) / v / 166320
}

// Hypergeometric returns a sample of the hypergeometric distribution: the
// number of "good" items in a uniform sample of size sample drawn without
// replacement from a population of good + bad items. It panics on negative
// arguments or sample > good + bad.
//
// Small sample counts use the HYP inversion algorithm; larger ones use the
// HRUA ratio-of-uniforms rejection algorithm (Stadlober 1990), giving O(1)
// expected time per draw for arbitrarily large populations. This is the
// workhorse of the counts backend's batched scheduler: splitting a batch of
// interactions over state classes is a chain of hypergeometric draws.
func (s *Source) Hypergeometric(good, bad, sample int64) int64 {
	switch {
	case good < 0 || bad < 0 || sample < 0 || sample > good+bad:
		panic(fmt.Sprintf("rng: Hypergeometric(%d, %d, %d) out of domain", good, bad, sample))
	case sample == 0 || good == 0:
		return 0
	case bad == 0:
		return sample
	}
	// Pick the cheapest of the four equivalent orientations of the 2×2
	// table. First complement so that good ≤ bad (#good in the sample is
	// sample − #bad in the sample); then, since the distribution is
	// invariant under swapping the roles of the "good" marking and the
	// "sampled" marking — Hyp(good, bad, sample) = Hyp(sample, N−sample,
	// good) — move the smallest margin into the sample position. This
	// lets the O(sample) inversion algorithm serve every draw where any
	// table margin is small, the common case in the counts backend's
	// census chains, where tiny state classes meet huge batches.
	if good > bad {
		return sample - s.Hypergeometric(bad, good, sample)
	}
	if good < min(sample, good+bad-sample) {
		good, bad, sample = sample, good+bad-sample, good
	}
	if sample > 10 {
		return s.hypergeometricHRUA(good, bad, sample)
	}
	return s.hypergeometricHyp(good, bad, sample)
}

// hypergeometricHyp is the HYP inversion algorithm, O(sample) time.
func (s *Source) hypergeometricHyp(good, bad, sample int64) int64 {
	d1 := float64(bad + good - sample)
	d2 := float64(min(bad, good))
	y := d2
	k := sample
	for y > 0 {
		y -= math.Floor(s.Float64() + y/(d1+float64(k)))
		k--
		if k == 0 {
			break
		}
	}
	z := int64(d2 - y)
	if good > bad {
		z = sample - z
	}
	return z
}

// hruaSpan is how far from the mode d9 a proposal of hypergeometricHRUA
// may land and still be decided from the product of one-step pmf ratios,
// at one division per step; proposals farther out pay the four-lgam
// log-factorial test. In a GSU19 run at n = 10⁸, 88% of proposals land
// within 32 of d9 (80% within 16); 32 ran faster there than 8 or 16.
const hruaSpan = 32

// hypergeometricHRUA is the HRUA ratio-of-uniforms rejection algorithm
// (Stadlober's H2PE family), O(1) expected time per draw.
//
// A proposal z is accepted exactly when x² ≤ f(z)/f(d9), f the pmf and d9
// its mode. Within hruaSpan of d9 that ratio is the product of the
// one-step ratios (see hruaRatio): no logarithm, no lgam call, and no
// cancellation between log-factorials near 10⁹. Farther out the classic
// test decides 2·ln x ≤ ln f(z) − ln f(d9) with its two squeezes, and the
// mode's log-factorial sum d10 is computed on the first such proposal.
func (s *Source) hypergeometricHRUA(good, bad, sample int64) int64 {
	const (
		d1 = 1.7155277699214135 // 2·sqrt(2/e)
		d2 = 0.8989161620588988 // 3 − 2·sqrt(3/e)
	)
	minGoodBad := min(good, bad)
	popSize := good + bad
	maxGoodBad := max(good, bad)
	m := min(sample, popSize-sample)
	d4 := float64(minGoodBad) / float64(popSize)
	d5 := 1 - d4
	d6 := float64(m)*d4 + 0.5
	d7 := math.Sqrt(float64(popSize-m)*float64(sample)*d4*d5/float64(popSize-1) + 0.5)
	d8 := d1*d7 + d2
	d9 := int64(float64(m+1) * float64(minGoodBad+1) / float64(popSize+2))
	d11 := min(float64(min(m, minGoodBad)+1), math.Floor(d6+16*d7))
	d10, haveD10 := 0.0, false

	var z int64
	for {
		x := s.Float64()
		y := s.Float64()
		w := d6 + d8*(y-0.5)/x
		if w < 0 || w >= d11 {
			continue
		}
		z = int64(math.Floor(w))
		if z-d9 <= hruaSpan && d9-z <= hruaSpan {
			if x*x <= hruaRatio(z, d9, minGoodBad, maxGoodBad, m) {
				break
			}
			continue
		}
		if !haveD10 {
			d10 = lgam(d9+1) + lgam(minGoodBad-d9+1) + lgam(m-d9+1) + lgam(maxGoodBad-m+d9+1)
			haveD10 = true
		}
		t := d10 - (lgam(z+1) + lgam(minGoodBad-z+1) + lgam(m-z+1) + lgam(maxGoodBad-m+z+1))
		if x*(4-x)-3 <= t {
			break // fast acceptance
		}
		if x*(x-t) >= 1 {
			continue // fast rejection
		}
		if 2*math.Log(x) <= t {
			break
		}
	}
	if good > bad {
		z = m - z
	}
	if m < sample {
		z = good - z
	}
	return z
}

// hruaRatio returns f(z)/f(mode) for the pmf f(k) ∝ 1/(k!(a−k)!(m−k)!(b−m+k)!)
// that hypergeometricHRUA samples (a ≤ b the smaller and larger class, m
// the sample), as the product of the one-step ratios
// f(k+1)/f(k) = (a−k)(m−k) / ((k+1)(b−m+k+1)) between mode and z. Both z
// and mode lie in [0, min(a, m)], so every factor is positive. Each step
// divides before it multiplies into the product: at N = 10¹⁰ a factor's
// numerator and denominator reach 10²⁰ each, while their quotient stays
// near 1 within hruaSpan of the mode.
func hruaRatio(z, mode, a, b, m int64) float64 {
	fa, fm, fc := float64(a), float64(m), float64(b-m)
	r := 1.0
	for k := float64(mode); k < float64(z); k++ {
		r *= (fa - k) * (fm - k) / ((k + 1) * (fc + k + 1))
	}
	for k := float64(z); k < float64(mode); k++ {
		r *= (k + 1) * (fc + k + 1) / ((fa - k) * (fm - k))
	}
	return r
}

// lgam returns log(Γ(v)) = log((v−1)!) for a positive integer argument.
// It serves the HRUA sampler's log-factorial test: four evaluations at the
// mode, once per draw and only if some proposal lands beyond hruaSpan, and
// four per such round. Small arguments come from a precomputed table and
// large ones from a Stirling expansion — an order of magnitude cheaper than
// math.Lgamma.
func lgam(v int64) float64 { return logFactorial(v - 1) }

// lfTable[k] holds ln k! for small k. It is fully built at package
// initialization and never written afterwards, so concurrent readers —
// the sharded counts batch sampler calls Hypergeometric from every shard
// goroutine at once — share it without synchronization. Keep it that way:
// a lazily-grown table here would be a data race under Split-stream
// sharding.
var lfTable = func() [8192]float64 {
	var t [8192]float64
	acc := 0.0
	for k := 1; k < len(t); k++ {
		acc += math.Log(float64(k))
		t[k] = acc
	}
	return t
}()

const halfLog2Pi = 0.9189385332046727 // ln(2π)/2

// logFactorial returns ln k!. Arguments beyond the table use the Stirling
// series with two correction terms, whose truncation error at k ≥ 8192 is
// below 10⁻²⁰ — far inside the acceptance tolerance of the rejection
// samplers built on it.
func logFactorial(k int64) float64 {
	if k < int64(len(lfTable)) {
		return lfTable[k]
	}
	f := float64(k)
	return (f+0.5)*math.Log(f) - f + halfLog2Pi + 1/(12*f) - 1/(360*f*f*f)
}

// Alias is Vose's alias table: after O(k) preprocessing of k category
// weights, Sample draws a category index in O(1) time. It is the category
// sampler the counts simulation backend uses to pick interaction pair
// classes proportionally to state-count products.
//
// Sample calls with distinct Sources are safe to run concurrently; Rebuild
// replaces the table in place and must not overlap them. The zero Alias is
// empty and becomes usable after Rebuild.
type Alias struct {
	prob  []float64
	alias []int32
	// small and large are the Vose construction's work stacks, kept so a
	// Rebuild allocates nothing once the table has reached its size.
	small, large []int32
}

// NewAlias builds an alias table over the given non-negative weights, which
// need not be normalized. It returns an error if weights is empty, contains
// a negative or non-finite entry, or sums to zero.
func NewAlias(weights []float64) (*Alias, error) {
	a := new(Alias)
	if err := a.Rebuild(weights); err != nil {
		return nil, err
	}
	return a, nil
}

// Rebuild replaces a's table with one over weights, reusing a's storage.
// The construction is NewAlias's, so the rebuilt table is identical to a
// fresh one over the same weights. On error a is left unchanged.
func (a *Alias) Rebuild(weights []float64) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("rng: alias table with no weights")
	}
	if n > 1<<31-1 {
		return fmt.Errorf("rng: alias table with %d weights (max %d)", n, 1<<31-1)
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return fmt.Errorf("rng: alias weight[%d] = %v", i, w)
		}
		total += w
	}
	if total == 0 {
		return fmt.Errorf("rng: alias table with all-zero weights")
	}
	a.prob = resize(a.prob, n)
	a.alias = resize(a.alias, n)
	// Vose's stack-based construction: scale weights to mean 1, then pair
	// each under-full category with an over-full donor.
	scaled := a.prob // reuse as scratch; overwritten below
	scale := float64(n) / total
	small := resize(a.small, n)[:0]
	large := resize(a.large, n)[:0]
	for i, w := range weights {
		scaled[i] = w * scale
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		a.prob[l] = scaled[l]
		a.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			large = large[:len(large)-1]
			small = append(small, g)
		}
	}
	// Leftovers (either stack) take their own column with probability 1.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	a.small, a.large = small, large
	return nil
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// N returns the number of categories.
func (a *Alias) N() int { return len(a.prob) }

// Sample draws a category index with probability proportional to its weight.
func (a *Alias) Sample(s *Source) int {
	i := int(s.Uintn(uint64(len(a.prob))))
	if s.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
