package syntheticcoin

import (
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

func TestToggle(t *testing.T) {
	if Toggle(0) != 1 || Toggle(1) != 0 {
		t.Fatal("Toggle broken")
	}
}

func TestRead(t *testing.T) {
	if Read(0) || !Read(1) {
		t.Fatal("Read broken")
	}
}

func TestBias(t *testing.T) {
	if Bias(50, 100) != 0 {
		t.Fatal("even split must have zero bias")
	}
	if Bias(0, 100) != 0.5 || Bias(100, 100) != 0.5 {
		t.Fatal("degenerate split must have bias 1/2")
	}
	if Bias(75, 100) != 0.25 {
		t.Fatal("three-quarter split must have bias 1/4")
	}
}

func TestParityConservedPerInteraction(t *testing.T) {
	// Each interaction toggles exactly two bits, so the total parity
	// count changes by -2, 0, or +2 and the population parity (mod 2)
	// is invariant.
	p := &Protocol{Size: 100}
	r := sim.NewRunner(p, rng.New(3))
	prev := r.Counts()[1]
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		cur := r.Counts()[1]
		d := cur - prev
		if d != -2 && d != 0 && d != 2 {
			t.Fatalf("ones count changed by %d", d)
		}
		prev = cur
	})
	r.RunSteps(5000)
}

// TestBiasDecays verifies the coin's key property: starting from the
// all-zeros worst case, the parity split reaches near 1/2 within a few
// parallel time units and stays there.
func TestBiasDecays(t *testing.T) {
	n := 1 << 12
	p := &Protocol{Size: n}
	r := sim.NewRunner(p, rng.New(11))
	if got := Bias(r.Counts()[1], n); got != 0.5 {
		t.Fatalf("initial bias %v, want 0.5", got)
	}
	// 8 parallel time units.
	r.RunSteps(uint64(8 * n))
	if got := Bias(r.Counts()[1], n); got > 0.05 {
		t.Fatalf("bias after 8 parallel time units: %v", got)
	}
	// It must remain small.
	for k := 0; k < 10; k++ {
		r.RunSteps(uint64(n))
		if got := Bias(r.Counts()[1], n); got > 0.08 {
			t.Fatalf("bias rebounded to %v", got)
		}
	}
}

func TestMetadata(t *testing.T) {
	p := &Protocol{Size: 8}
	if p.Name() == "" || p.N() != 8 || p.NumClasses() != 2 {
		t.Fatal("metadata broken")
	}
	if p.Leader(1) || p.Stable([]int64{4, 4}) {
		t.Fatal("coin protocol has no leaders and never stabilizes")
	}
	if p.Class(3) != 1 || p.Class(2) != 0 {
		t.Fatal("class must be the parity bit")
	}
}
