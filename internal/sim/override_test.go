package sim

import (
	"testing"

	"popelect/internal/rng"
)

func TestOverrideReplacesInitialConfiguration(t *testing.T) {
	// duel normally starts all-leader; override to a single leader.
	o := NewOverride(duel{10}, func(i int) uint32 {
		if i == 3 {
			return 1
		}
		return 0
	})
	r := NewRunner(o, rng.New(1))
	res := r.Run()
	if !res.Converged || res.Interactions != 0 {
		t.Fatalf("single-leader start must be immediately stable: %+v", res)
	}
	if res.LeaderID != 3 {
		t.Fatalf("leader id %d, want 3", res.LeaderID)
	}
}

func TestOverrideDelegates(t *testing.T) {
	o := NewOverride(duel{4}, func(int) uint32 { return 1 })
	if o.N() != 4 || o.NumClasses() != 2 {
		t.Fatal("delegation broken")
	}
	if o.Name() == "duel" {
		t.Fatal("override must be visible in the name")
	}
	if !o.Leader(1) || o.Leader(0) {
		t.Fatal("output delegation broken")
	}
	nr, ni := o.Delta(1, 1)
	if nr != 0 || ni != 1 {
		t.Fatal("delta delegation broken")
	}
	if !o.Stable([]int64{3, 1}) {
		t.Fatal("stability delegation broken")
	}
}

func TestOverrideRunsToCompletion(t *testing.T) {
	// Start the duel from an adversarial two-leader configuration.
	o := NewOverride(duel{50}, func(i int) uint32 {
		if i < 2 {
			return 1
		}
		return 0
	})
	r := NewRunner(o, rng.New(7))
	res := r.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("%+v", res)
	}
}
