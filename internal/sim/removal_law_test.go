package sim

import (
	"math"
	"testing"

	"popelect/internal/rng"
)

// blocks is a four-state fixture with census 400/100/250/250 (states in
// agent-index blocks) and the identity transition: only perturbation
// targets ever move its agents.
type blocks struct{}

var blocksCensus = []int64{400, 100, 250, 250}

func (blocks) Name() string { return "blocks" }
func (blocks) N() int       { return 1000 }
func (blocks) Init(yield func(uint32, int64)) {
	for s, c := range blocksCensus {
		yield(uint32(s), c)
	}
}
func (blocks) Delta(r, i uint32) (uint32, uint32) { return r, i }
func (blocks) NumClasses() int                    { return 1 }
func (blocks) Class(uint32) uint8                 { return 0 }
func (blocks) Leader(uint32) bool                 { return false }
func (blocks) Stable([]int64) bool                { return false }
func (blocks) States() []uint32                   { return []uint32{0, 1, 2, 3} }

// TestRemoveUniformMVHTotals pins the removal row's hard invariants: it
// removes exactly the requested number of agents (clamped to the live
// population), and no state's count drops below zero.
func TestRemoveUniformMVHTotals(t *testing.T) {
	e := NewCountsEngine(blocks{}, rng.New(1))
	src := rng.New(2)
	for _, k := range []int64{0, 1, 17, 300, 999, 1000, 1500} {
		want := min(k, 1000)
		for rep := 0; rep < 200; rep++ {
			e.Reset()
			if got := e.removeUniformMVH(src, k); got != want {
				t.Fatalf("k %d: removed %d, want %d", k, got, want)
			}
			var sum int64
			for id, c := range e.pop {
				if c < 0 {
					t.Fatalf("k %d: state %d count %d", k, id, c)
				}
				sum += c
			}
			if sum != 1000-want {
				t.Fatalf("k %d: census sums to %d, want %d", k, sum, 1000-want)
			}
		}
	}
}

// TestRemoveUniformMVHMarginals checks each state's removals against the
// univariate hypergeometric mean and variance (the multivariate
// hypergeometric law's marginals): the mean within a 5σ band over many
// rows, the variance within 10%.
func TestRemoveUniformMVHMarginals(t *testing.T) {
	e := NewCountsEngine(blocks{}, rng.New(1))
	src := rng.New(7)
	const total = 1000
	const sample = 300
	const reps = 20000
	sums := make([]float64, len(blocksCensus))
	sqs := make([]float64, len(blocksCensus))
	for rep := 0; rep < reps; rep++ {
		e.Reset()
		e.removeUniformMVH(src, sample)
		for id, c := range blocksCensus {
			k := float64(c - e.pop[id])
			sums[id] += k
			sqs[id] += k * k
		}
	}
	for id, c := range blocksCensus {
		mean := sums[id] / reps
		wantMean := float64(sample) * float64(c) / total
		wantVar := wantMean * (1 - float64(c)/total) * (total - sample) / (total - 1)
		tol := 5 * math.Sqrt(wantVar/reps)
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("state %d: mean %.3f, want %.3f ± %.3f", id, mean, wantMean, tol)
		}
		v := sqs[id]/reps - mean*mean
		if math.Abs(v-wantVar) > 0.1*wantVar {
			t.Errorf("state %d: variance %.3f, want %.3f ± 10%%", id, v, wantVar)
		}
	}
}
