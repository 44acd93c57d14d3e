package sim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"popelect/internal/rng"
)

// TrialConfig controls a batch of independent executions.
type TrialConfig struct {
	// Trials is the number of independent runs.
	Trials int

	// Seed is the base seed; trial t uses PRNG stream (Seed, t).
	Seed uint64

	// Workers caps the number of concurrent runners; 0 means GOMAXPROCS.
	Workers int

	// EngineWorkers caps each trial engine's internal sampling shards
	// (counts backend only; see CountsEngine.Workers and the determinism
	// contract there). It is independent of Workers, which bounds how many
	// trials run concurrently: trial-level parallelism already saturates
	// cores when Trials ≥ Workers, so EngineWorkers matters mainly for
	// single-trial scale runs. 0 keeps the serial engine path.
	EngineWorkers int

	// MaxInteractions bounds each run; 0 means DefaultBudget(n).
	MaxInteractions uint64

	// TrackStates enables distinct-state counting in each run. (The
	// counts backend tracks distinct states inherently and always
	// reports them.)
	TrackStates bool

	// Backend selects the simulation engine: BackendDense, BackendCounts
	// or BackendAuto. Empty means BackendDense, the historical default.
	// BackendCounts with a protocol that does not implement Enumerable is
	// an error (RunTrials reports it before any worker spawns);
	// BackendAuto falls back to dense in that case.
	Backend Backend

	// Batch selects the counts backend's batch scheduling policy (fixed
	// length, adaptive drift bound, or exact stepping); the zero value is
	// BatchAuto. Ignored by the dense backend, but its ε must be finite
	// and ≥ 0 on every backend. See BatchPolicy.
	Batch BatchPolicy

	// Perturb attaches a perturbation (churn, corruption, scheduler bias —
	// see Perturbation and Combine) to every trial's engine before it runs.
	// Attachment constraints are backend-specific and surface as errors: the
	// dense backend needs an Enumerable protocol. Nil runs unperturbed on
	// the historical path.
	Perturb Perturbation

	// CheckpointEvery > 0 snapshots each trial's engine about every that
	// many interactions (at the next scheduling-unit boundary; see
	// Checkpointable.SetCheckpoint) into CheckpointDir, one file per trial
	// (TrialCheckpointPath), written atomically. Requires CheckpointDir.
	CheckpointEvery uint64

	// CheckpointDir is the directory holding per-trial checkpoint files.
	CheckpointDir string

	// Resume restores each trial's engine from its file in CheckpointDir
	// before running; trials whose file does not exist start fresh, so a
	// killed sweep resumes with the same config and finishes byte-identically
	// to an uninterrupted run (the resume-equals-replay law).
	Resume bool
}

// TrialCheckpointPath returns the checkpoint file RunTrials uses for one
// trial index under dir.
func TrialCheckpointPath(dir string, trial int) string {
	return filepath.Join(dir, fmt.Sprintf("trial-%d.ckpt", trial))
}

// TrialProbe attaches one census probe to every trial's engine in
// RunTrialsProbed. Make is called once per trial on the worker goroutine;
// the returned probe fires every Every interactions plus once at the end
// of the trial's Run (Every == 0: end of Run only). Probes observe only
// their own trial, so per-trial sinks (e.g. a stats.Collector per trial,
// allocated up front and indexed by trial) need no locking.
type TrialProbe[S comparable] struct {
	Every uint64
	Make  func(trial int) Probe[S]
}

// RunTrials executes cfg.Trials independent runs of the protocols produced
// by factory (called once per trial, so protocols may be shared or fresh)
// and returns the results ordered by trial index.
//
// Trials are distributed over a bounded worker pool; each trial gets its own
// deterministic PRNG stream, so results are reproducible regardless of the
// number of workers. Configuration problems — an unknown backend, or
// BackendCounts with a protocol that does not implement Enumerable — are
// reported as an error before any worker spawns.
func RunTrials[S comparable, P Protocol[S]](factory func(trial int) P, cfg TrialConfig) ([]Result, error) {
	return RunTrialsProbed[S, P](factory, cfg)
}

// RunTrialsProbed is RunTrials with census probes attached to every
// trial's engine — the bulk-observation entry point: trajectory series are
// recorded per trial (see TrialProbe) and merged afterwards, e.g. with
// stats.AggregateOnGrid.
func RunTrialsProbed[S comparable, P Protocol[S]](factory func(trial int) P, cfg TrialConfig, probes ...TrialProbe[S]) ([]Result, error) {
	if cfg.Trials <= 0 {
		return nil, nil
	}
	// Validate the configuration on the caller's goroutine, before any
	// worker spawns, so misconfiguration surfaces as an error here rather
	// than once per trial inside the pool.
	var zero P
	if err := checkTrialConfig[S](zero, cfg); err != nil {
		return nil, err
	}
	if (cfg.CheckpointEvery > 0 || cfg.Resume) && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("sim: checkpointing/resume requires CheckpointDir")
	}
	if cfg.CheckpointEvery > 0 {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("sim: checkpoint dir: %w", err)
		}
	}
	results := make([]Result, cfg.Trials)
	runTrial := func(t int) error {
		eng, err := NewTrialEngine[S, P](factory(t), rng.NewStream(cfg.Seed, uint64(t)), cfg)
		if err != nil {
			return err
		}
		for _, tp := range probes {
			if tp.Make == nil {
				continue
			}
			if err := AddProbe[S](eng, tp.Make(t), tp.Every); err != nil {
				return err
			}
		}
		path := TrialCheckpointPath(cfg.CheckpointDir, t)
		resume := ""
		if cfg.Resume {
			resume = path
		}
		ck, err := AttachCheckpoint(eng, resume, path, cfg.CheckpointEvery)
		if err != nil {
			return err
		}
		res := eng.Run()
		res.Seed = uint64(t)
		results[t] = res
		if ck != nil {
			return ck.CheckpointErr()
		}
		return nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	// Each trial writes only its own results and errs slots.
	errs := make([]error, cfg.Trials)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				errs[t] = runTrial(t)
			}
		}()
	}
	for t := 0; t < cfg.Trials; t++ {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
	for t, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sim: trial %d: %w", t, err)
		}
	}
	return results, nil
}

// NewTrialEngine builds one engine from cfg; every TrialConfig becomes an
// engine here: Backend picks the engine (empty = dense). The budget, batch
// policy, engine workers and state tracking are applied, and Perturb is
// attached last. Configuration problems — an unknown backend, a counts
// request for a protocol without Enumerable, a batch ε that is NaN,
// infinite or negative — are returned as errors. The trial-pool fields
// (Trials, Seed, Workers) and the checkpoint fields are RunTrials'
// business, not the engine's; see AttachCheckpoint for the latter.
func NewTrialEngine[S comparable, P Protocol[S]](proto P, src *rng.Source, cfg TrialConfig) (Engine, error) {
	if err := checkTrialConfig[S](proto, cfg); err != nil {
		return nil, err
	}
	eng, err := NewEngine[S, P](proto, src, cfg.Backend)
	if err != nil {
		return nil, err
	}
	eng.SetBudget(cfg.MaxInteractions)
	if bc, ok := eng.(BatchConfigurable); ok {
		bc.SetBatchPolicy(cfg.Batch)
	}
	if wc, ok := eng.(WorkerConfigurable); ok {
		wc.SetWorkers(cfg.EngineWorkers)
	}
	if st, ok := eng.(StateTracker); ok {
		st.SetTrackStates(cfg.TrackStates)
	}
	if cfg.Perturb != nil {
		// Every engine implements Perturbable; attach before any Restore,
		// since perturbed checkpoints require the perturbation in place.
		if err := eng.(Perturbable).SetPerturbation(cfg.Perturb); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// checkTrialConfig reports the configuration errors NewTrialEngine would
// return for proto, without building anything. RunTrialsProbed passes the
// zero P, so the capability checks go by protocol type.
func checkTrialConfig[S comparable, P Protocol[S]](proto P, cfg TrialConfig) error {
	switch cfg.Backend {
	case "", BackendDense, BackendAuto:
	case BackendCounts:
		if _, ok := any(proto).(Enumerable[S]); !ok {
			return fmt.Errorf("sim: backend counts requires protocol type %T to implement Enumerable (finite state-space enumeration)", proto)
		}
	default:
		return fmt.Errorf("sim: unknown backend %q (want dense, counts or auto)", cfg.Backend)
	}
	if eps := cfg.Batch.Eps; math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		return fmt.Errorf("sim: batch drift bound ε = %g (want a finite value ≥ 0)", eps)
	}
	return nil
}

// ParallelTimes extracts the parallel-time measure from a batch of results.
func ParallelTimes(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ParallelTime()
	}
	return out
}

// Interactions extracts interaction counts from a batch of results.
func Interactions(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.Interactions)
	}
	return out
}

// AllConverged reports whether every result converged.
func AllConverged(rs []Result) bool {
	for _, r := range rs {
		if !r.Converged {
			return false
		}
	}
	return true
}

// ConvergedCount returns how many results converged.
func ConvergedCount(rs []Result) int {
	c := 0
	for _, r := range rs {
		if r.Converged {
			c++
		}
	}
	return c
}
