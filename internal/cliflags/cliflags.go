// Package cliflags is the command-line flag set the CLIs share: the trial,
// engine, perturbation and profiling flags, registered on a caller's
// flag.FlagSet and parsed into one sim.TrialConfig.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"popelect/internal/sim"
)

// Flags holds the raw values of the shared flags after parsing.
type Flags struct {
	Seed                   uint64
	Trials                 int
	Backend, Batch         string
	BatchEps               float64
	Workers, Shards        int
	Migration              float64
	Churn, Corrupt, Bias   string
	CPUProfile, MemProfile string
	fs                     *flag.FlagSet
}

// Register adds the shared flags to fs. seed and trials are the command's
// defaults for -seed and -trials.
func Register(fs *flag.FlagSet, seed uint64, trials int) *Flags {
	f := &Flags{fs: fs}
	fs.Uint64Var(&f.Seed, "seed", seed, "base PRNG seed")
	fs.IntVar(&f.Trials, "trials", trials, "number of independent trials")
	fs.StringVar(&f.Backend, "backend", "dense", "simulation backend: dense, counts or auto (counts scales to n=10⁸–10⁹ but reports no leader agent id)")
	fs.StringVar(&f.Batch, "batch", "auto", "counts-backend batch policy: auto, adaptive, exact, or a fixed batch length")
	fs.Float64Var(&f.BatchEps, "batch-eps", 0, "adaptive batch controller drift bound ε (0 = default)")
	fs.IntVar(&f.Workers, "workers", runtime.GOMAXPROCS(0), "worker bound: concurrent trials, and sampling shards inside each counts engine (a fixed value ⇒ byte-identical runs per seed on any machine; 1 = serial)")
	fs.IntVar(&f.Shards, "shards", 0, "partition the population into K sub-censuses advanced concurrently with epoch-boundary migration (≤1 = single census; requires an enumerable protocol; paperbench applies it to the scale experiment only)")
	fs.Float64Var(&f.Migration, "migration", -1, "sharded per-agent per-epoch migration probability λ (-1 = fidelity default, 0 = isolated shards; requires -shards ≥ 2)")
	fs.StringVar(&f.Churn, "churn", "", "population churn spec: RATE or LEAVE:JOIN per-interaction rates, optional @UNTIL step (e.g. 2.5e-3:8.3e-4@3e6)")
	fs.StringVar(&f.Corrupt, "corrupt", "", "state corruption spec: K@STEP scrambles K uniformly chosen agents once at STEP, or RATE[@UNTIL] scrambles continuously")
	fs.StringVar(&f.Bias, "bias", "", "scheduler bias spec: CLASS=WEIGHT,... non-uniform interaction weights per census class (dense/counts only)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	return f
}

// Config parses and cross-checks the flag values into the trial
// configuration: -workers bounds both the trial pool and each engine's
// sampling shards, and the -migration flag convention (-1 = fidelity
// default, 0 = isolated) becomes TrialConfig's (0 = default, negative =
// isolated).
func (f *Flags) Config() (sim.TrialConfig, error) {
	backend, err := sim.ParseBackend(f.Backend)
	if err != nil {
		return sim.TrialConfig{}, err
	}
	batch, err := sim.ParseBatchPolicy(f.Batch)
	if err != nil {
		return sim.TrialConfig{}, err
	}
	batch.Eps = f.BatchEps
	if f.Migration >= 0 && f.Shards < 2 {
		return sim.TrialConfig{}, errors.New("-migration requires -shards ≥ 2")
	}
	migration := 0.0 // a negative flag keeps the fidelity default
	if f.Migration >= 0 {
		migration = sim.TrialMigration(f.Migration)
	}
	perturb, err := sim.ParsePerturbations(f.Churn, f.Corrupt, f.Bias)
	if err != nil {
		return sim.TrialConfig{}, err
	}
	return sim.TrialConfig{Trials: f.Trials, Seed: f.Seed, Workers: f.Workers, EngineWorkers: f.Workers,
		Backend: backend, Batch: batch, Shards: f.Shards, Migration: migration, Perturb: perturb}, nil
}

// Profile starts the CPU profile -cpuprofile asks for. The returned stop
// ends it and writes the -memprofile heap profile; call it on exit. Errors
// writing either file go to the flag set's output, prefixed with its name.
func (f *Flags) Profile() (stop func(), err error) {
	var cpu *os.File
	if f.CPUProfile != "" {
		if cpu, err = os.Create(f.CPUProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, err
		}
	}
	return func() {
		report := func(err error) {
			if err != nil {
				fmt.Fprintf(f.fs.Output(), "%s: %v\n", f.fs.Name(), err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			report(cpu.Close())
		}
		if f.MemProfile != "" {
			report(writeHeapProfile(f.MemProfile))
		}
	}, nil
}

func writeHeapProfile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
