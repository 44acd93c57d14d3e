package sim_test

import (
	"testing"

	"popelect/internal/sim"
)

// FuzzParseSpecs feeds one string to every CLI spec parser — the trust
// boundary between command lines and the engines. No parser may panic, an
// accepted perturbation must pass its own Validate, and an accepted batch
// policy must round-trip through its String form.
func FuzzParseSpecs(f *testing.F) {
	for _, seed := range []string{
		// churn
		"2.5e-3:8e-4@3000", "1e-4", "2.5e-3:8.3e-4@3e6", "1e-4@0", "1e-4:y", "1e-4@2.5",
		// corruption
		"128@1000", "1e-5@500", "1024@2e7", "128@229376", "64", "-1@10", "2.0",
		// bias
		"0=4,2=0.5", "0=2,1=0.5", "-1=2", "0=0", "10000000=2",
		// batch policy and backend
		"auto", "adaptive", "exact", "fixed", "4096", "0", " 8 ", "dense", "counts", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if c, err := sim.ParseChurn(spec); err == nil {
			if err := c.Validate(); err != nil {
				t.Errorf("ParseChurn(%q) accepted %+v, which fails Validate: %v", spec, c, err)
			}
		}
		if c, err := sim.ParseCorruption(spec); err == nil {
			if err := c.Validate(); err != nil {
				t.Errorf("ParseCorruption(%q) accepted %+v, which fails Validate: %v", spec, c, err)
			}
		}
		if b, err := sim.ParseBias(spec); err == nil {
			if err := b.Validate(); err != nil {
				t.Errorf("ParseBias(%q) accepted %+v, which fails Validate: %v", spec, b, err)
			}
		}
		if p, err := sim.ParseBatchPolicy(spec); err == nil {
			if q, err := sim.ParseBatchPolicy(p.String()); err != nil || q != p {
				t.Errorf("ParseBatchPolicy(%q) = %+v does not round-trip: %q parses to %+v, %v", spec, p, p.String(), q, err)
			}
		}
		if b, err := sim.ParseBackend(spec); err == nil {
			if c, err := sim.ParseBackend(string(b)); err != nil || c != b {
				t.Errorf("ParseBackend(%q) = %q does not round-trip: %q, %v", spec, b, c, err)
			}
		}
	})
}
