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

// TestConfig pins the flag → TrialConfig mapping, the λ convention change
// included: the flag's -1 (default) and 0 (isolated) become TrialConfig's
// 0 and a negative value.
func TestConfig(t *testing.T) {
	cfg, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Trials != 3 || cfg.Backend != sim.BackendDense ||
		cfg.Batch != (sim.BatchPolicy{}) || cfg.Migration != 0 || cfg.Perturb != nil {
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
	for _, c := range []struct {
		flag string
		want float64
	}{{"-1", 0}, {"0", -1}, {"0.3", 0.3}} {
		cfg, err := parse(t, "-shards", "4", "-migration", c.flag)
		if err != nil || cfg.Migration != c.want {
			t.Errorf("-migration %s: Migration=%g, %v; want %g", c.flag, cfg.Migration, err, c.want)
		}
	}
	for _, bad := range [][]string{
		{"-migration", "0.1"},
		{"-shards", "1", "-migration", "0"},
		{"-backend", "bogus"},
		{"-batch", "bogus"},
		{"-churn", "x"},
	} {
		if _, err := parse(t, bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}
