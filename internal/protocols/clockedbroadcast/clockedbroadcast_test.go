package clockedbroadcast

import (
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/simtest"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultParams(1024)); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	bad := []Params{
		{N: 1, Sources: 1, Rounds: 3, Gamma: 36, Phi: 2},
		{N: 100, Sources: 0, Rounds: 3, Gamma: 36, Phi: 2},
		{N: 100, Sources: 101, Rounds: 3, Gamma: 36, Phi: 2},
		{N: 100, Sources: 1, Rounds: 0, Gamma: 36, Phi: 2},
		{N: 100, Sources: 1, Rounds: 8, Gamma: 36, Phi: 2},
		{N: 100, Sources: 1, Rounds: 3, Gamma: 7, Phi: 2},
		{N: 100, Sources: 1, Rounds: 3, Gamma: 36, Phi: 0},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) should fail", p)
		}
	}
}

// TestBroadcastCompletes: every agent ends informed and done, on every
// trial and both backends' scheduling law (dense here, counts below).
func TestBroadcastCompletes(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		pr := MustNew(DefaultParams(n))
		rs := simtest.MustTrials(t)(sim.RunTrials(
			func(int) sim.Protocol { return pr },
			sim.TrialConfig{Trials: 10, Seed: uint64(n) + 3}))
		for i, res := range rs {
			if !res.Converged {
				t.Fatalf("n=%d trial %d: %+v", n, i, res)
			}
			if res.Counts[ClassDone] != int64(n) {
				t.Fatalf("n=%d trial %d: %d done of %d", n, i, res.Counts[ClassDone], n)
			}
		}
	}
}

// TestDoneWaitsKRounds: no agent can be done before the clock has ticked
// K passes for it — at the moment the first done agent appears, the rumor
// must have been out for at least K round lengths. Cheap proxy: done
// agents never appear in the first n interactions (a round is Θ(n log n)).
func TestDoneWaitsKRounds(t *testing.T) {
	n := 1024
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr, rng.New(13))
	r.RunSteps(uint64(n))
	if done := r.Counts()[ClassDone]; done != 0 {
		t.Fatalf("%d agents done after only n interactions (K rounds cannot have passed)", done)
	}
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
}

// TestSpreadsFromOneSource: with the default single source, the informed
// count is monotone from 1 to n.
func TestSpreadsFromOneSource(t *testing.T) {
	n := 512
	pr := MustNew(DefaultParams(n))
	r := sim.NewRunner(pr, rng.New(21))
	prev := int64(-1)
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		c := r.Counts()
		informed := c[ClassSpreading] + c[ClassDone]
		if informed < prev {
			t.Fatalf("step %d: informed count fell %d → %d", step, prev, informed)
		}
		prev = informed
	})
	if res := r.Run(); !res.Converged {
		t.Fatalf("%+v", res)
	}
}

// TestCountsBackendCompletes runs the composition on the counts backend.
func TestCountsBackendCompletes(t *testing.T) {
	pr := MustNew(DefaultParams(3000))
	eng, err := sim.NewEngine(pr, rng.New(7), sim.BackendCounts)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged || res.Counts[ClassDone] != 3000 {
		t.Fatalf("counts backend: %+v", res)
	}
}
