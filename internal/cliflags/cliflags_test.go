package cliflags

import (
	"flag"
	"io"
	"testing"

	"popelect/internal/sim"
)

func parse(t *testing.T, args ...string) (sim.TrialConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, 7, 3)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Config()
}

// TestConfig pins the flag → TrialConfig mapping.
func TestConfig(t *testing.T) {
	cfg, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Trials != 3 || cfg.Backend != sim.BackendDense ||
		cfg.Batch != (sim.BatchPolicy{}) || cfg.Perturb != nil {
		t.Fatalf("defaults parsed to %+v", cfg)
	}
	cfg, err = parse(t, "-workers", "3", "-batch", "adaptive", "-batch-eps", "0.01", "-bias", "0=2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 3 || cfg.EngineWorkers != 3 {
		t.Errorf("-workers 3 gave Workers=%d EngineWorkers=%d", cfg.Workers, cfg.EngineWorkers)
	}
	if cfg.Batch != (sim.BatchPolicy{Mode: sim.BatchAdaptive, Eps: 0.01}) || cfg.Perturb == nil {
		t.Errorf("batch/bias parsed to %+v, %v", cfg.Batch, cfg.Perturb)
	}
	for _, bad := range [][]string{
		{"-backend", "bogus"},
		{"-batch", "bogus"},
		{"-churn", "x"},
	} {
		if _, err := parse(t, bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}
