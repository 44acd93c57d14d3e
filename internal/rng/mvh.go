package rng

import "fmt"

// MultiHypergeometric draws a multivariate hypergeometric split: sample
// items are taken without replacement from a population partitioned into
// urns of counts[i] items each, and dst[i] receives the number taken from
// urn i. dst and counts must have the same length; dst is overwritten and
// returned. It panics if any count is negative or sample exceeds the
// population total.
//
// The draw is a chain of univariate Hypergeometric conditionals — urn i's
// allocation given the remainder left by urns 0..i−1 — which is exactly the
// joint MVH law (the chain rule), and by MVH consistency under grouping the
// row order does not affect the law. The counts engine's perturbation
// targets use it to remove uniformly chosen agents from the census in one
// row draw over the occupied states.
func (s *Source) MultiHypergeometric(dst, counts []int64, sample int64) []int64 {
	if len(dst) != len(counts) {
		panic(fmt.Sprintf("rng: MultiHypergeometric dst length %d != counts length %d", len(dst), len(counts)))
	}
	total := int64(0)
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("rng: MultiHypergeometric negative count %d at row %d", c, i))
		}
		total += c
	}
	if sample < 0 || sample > total {
		panic(fmt.Sprintf("rng: MultiHypergeometric sample %d outside [0, %d]", sample, total))
	}
	rem := total
	need := sample
	for i, c := range counts {
		var k int64
		if need > 0 && c > 0 {
			if bad := rem - c; bad == 0 {
				k = need // last nonempty tail: everything left comes from here
			} else {
				k = s.Hypergeometric(c, bad, need)
				// Clamp to the exact support, guarding the chain's totals
				// against any floating-point edge case in the sampler.
				if lo := need - bad; k < lo {
					k = lo
				}
				if k < 0 {
					k = 0
				}
				if k > c {
					k = c
				}
				if k > need {
					k = need
				}
			}
		}
		dst[i] = k
		need -= k
		rem -= c
	}
	return dst
}
