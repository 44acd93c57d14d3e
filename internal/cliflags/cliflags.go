// Package cliflags is the command-line flag set the CLIs share: the trial,
// engine, perturbation, phase-clock and profiling flags, registered on a
// caller's flag.FlagSet and parsed into one sim.TrialConfig.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"popelect/internal/phaseclock"
	"popelect/internal/sim"
)

// Flags holds the raw values of the shared flags after parsing.
type Flags struct {
	Seed                   uint64
	Trials                 int
	Backend, Batch         string
	BatchEps               float64
	Workers                int
	Gamma                  int
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
	fs.IntVar(&f.Gamma, "gamma", 0, "phase-clock resolution Γ override (0 = derived Γ(n): next even ≥ 2·log₂ n, floor 36)")
	fs.StringVar(&f.Churn, "churn", "", "population churn spec: RATE or LEAVE:JOIN per-interaction rates, optional @UNTIL step (e.g. 2.5e-3:8.3e-4@3e6)")
	fs.StringVar(&f.Corrupt, "corrupt", "", "state corruption spec: K@STEP scrambles K uniformly chosen agents once at STEP, or RATE[@UNTIL] scrambles continuously")
	fs.StringVar(&f.Bias, "bias", "", "scheduler bias spec: CLASS=WEIGHT,... non-uniform interaction weights per census class")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	return f
}

// Config parses and cross-checks the flag values into the trial
// configuration: -workers bounds both the trial pool and each engine's
// sampling shards. A nonzero -gamma must be a valid phase-clock resolution;
// the commands read it from Gamma.
func (f *Flags) Config() (sim.TrialConfig, error) {
	if f.Gamma != 0 {
		if err := phaseclock.Validate(f.Gamma); err != nil {
			return sim.TrialConfig{}, err
		}
	}
	backend, err := sim.ParseBackend(f.Backend)
	if err != nil {
		return sim.TrialConfig{}, err
	}
	batch, err := sim.ParseBatchPolicy(f.Batch)
	if err != nil {
		return sim.TrialConfig{}, err
	}
	batch.Eps = f.BatchEps
	perturb, err := sim.ParsePerturbations(f.Churn, f.Corrupt, f.Bias)
	if err != nil {
		return sim.TrialConfig{}, err
	}
	return sim.TrialConfig{Trials: f.Trials, Seed: f.Seed, Workers: f.Workers, EngineWorkers: f.Workers,
		Backend: backend, Batch: batch, Perturb: perturb}, nil
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
