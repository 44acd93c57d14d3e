package sim

import (
	"math"
	"testing"

	"popelect/internal/rng"
)

// pairMarker is a fixture whose transitions record the batch's pair-class
// matrix in the census: 9 agents start in base states 0, 1, 2 (counts
// 4/3/2), and a responder in base state a that meets an initiator in base
// state b becomes marker 3+3a+b while the initiator keeps its state. After
// one batch on the initial census, the count of marker 3+3a+b is the
// number of (a, b) pairs the batch drew.
type pairMarker struct{}

var pairMarkerInit = [9]uint32{0, 0, 0, 0, 1, 1, 1, 2, 2}

func (pairMarker) Name() string          { return "pairMarker" }
func (pairMarker) N() int                { return len(pairMarkerInit) }
func (pairMarker) NumClasses() int       { return 1 }
func (pairMarker) Class(s uint32) uint8  { return 0 }
func (pairMarker) Leader(s uint32) bool  { return false }
func (pairMarker) Stable(c []int64) bool { return false }
func (pairMarker) Init(yield func(uint32, int64)) {
	for _, s := range pairMarkerInit {
		yield(s, 1)
	}
}
func (pairMarker) Delta(r, i uint32) (uint32, uint32) {
	if r < 3 && i < 3 {
		return 3 + 3*r + i, i
	}
	return r, i
}
func (pairMarker) States() []uint32 {
	out := make([]uint32, 12)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// pairMatrixKey encodes a 3×3 pair-class matrix with entries ≤ 4 in base 5.
func pairMatrixKey(m func(a, b int) int64) int {
	key := 0
	for c := 8; c >= 0; c-- {
		key = 5*key + int(m(c/3, c%3))
	}
	return key
}

// exactPairMatrixPMF enumerates every ordered 2l-tuple of distinct agents
// of pairMarker's census (interaction t pairs responder 2t with initiator
// 2t+1) and returns the law of the resulting pair-class matrix: the batch
// law the counts engine must reproduce.
func exactPairMatrixPMF(l int) map[int]float64 {
	counts := map[int]float64{}
	var m [3][3]int64
	used := [9]bool{}
	total := 0.0
	var rec func(pos, resp int)
	rec = func(pos, resp int) {
		if pos == 2*l {
			counts[pairMatrixKey(func(a, b int) int64 { return m[a][b] })]++
			total++
			return
		}
		for agent, cls := range pairMarkerInit {
			if used[agent] {
				continue
			}
			used[agent] = true
			if pos%2 == 0 {
				rec(pos+1, int(cls))
			} else {
				m[resp][cls]++
				rec(pos+1, -1)
				m[resp][cls]--
			}
			used[agent] = false
		}
	}
	rec(0, -1)
	for k := range counts {
		counts[k] /= total
	}
	return counts
}

// TestBatchPairClassLaw pins the law of a single batch: over repeated
// batches of l interactions on pairMarker's 9-agent census, the pair-class
// matrix must follow the exact law of a uniformly random ordered
// 2l-tuple of distinct agents (chi-square, bins with expectation below 5
// pooled). It covers the three ways runBatch samples serially: l ≤ n/3,
// where every pairing row is drawn through the alias table; l > n/3, where
// every row goes down the hypergeometric chains; and a bias with
// all-equal weights, which routes through sampleBatchBiased.
func TestBatchPairClassLaw(t *testing.T) {
	const trials = 50_000
	for _, tc := range []struct {
		name   string
		l      int
		biased bool
	}{
		{"alias-rows", 3, false},
		{"chain-rows", 4, false},
		{"biased-equal-weights", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewCountsEngine(pairMarker{}, rng.New(uint64(31+tc.l)))
			if tc.biased {
				if err := e.SetPerturbation(Perturbation{Bias: Bias{Weights: []float64{1}}}); err != nil {
					t.Fatal(err)
				}
			}
			obs := map[int]float64{}
			for range trials {
				e.Reset()
				e.runBatch(uint64(tc.l))
				obs[pairMatrixKey(func(a, b int) int64 {
					if id, ok := e.index[uint32(3+3*a+b)]; ok {
						return e.pop[id]
					}
					return 0
				})]++
			}
			pmf := exactPairMatrixPMF(tc.l)
			var chi2, poolObs, poolExp float64
			df := -1
			for k, p := range pmf {
				exp := p * trials
				if exp < 5 {
					poolObs += obs[k]
					poolExp += exp
				} else {
					d := obs[k] - exp
					chi2 += d * d / exp
					df++
				}
				delete(obs, k)
			}
			if poolExp > 0 {
				d := poolObs - poolExp
				chi2 += d * d / poolExp
				df++
			}
			if len(obs) != 0 {
				t.Fatalf("batch drew %d pair-class matrices the exact law gives probability 0", len(obs))
			}
			if df < 3 {
				t.Fatalf("degenerate chi-square setup (df=%d)", df)
			}
			// Mean df, std sqrt(2·df): 6 sigma as in the rng samplers' tests.
			if limit := float64(df) + 6*math.Sqrt(2*float64(df)); chi2 > limit {
				t.Errorf("pair-class matrix: chi-square %.1f over df %d exceeds %.1f", chi2, df, limit)
			}
		})
	}
}
