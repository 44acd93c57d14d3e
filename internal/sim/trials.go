package sim

import (
	"fmt"
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
	// reported as an error by RunTrials before any worker spawns;
	// BackendAuto falls back to dense in that case.
	Backend Backend

	// Batch selects the counts backend's batch scheduling policy (fixed
	// length, adaptive drift bound, or exact stepping); the zero value is
	// BatchAuto. Ignored by the dense backend. See BatchPolicy.
	Batch BatchPolicy

	// Shards ≥ 2 runs each trial on the sharded counts backend with that
	// many sub-censuses (see ShardedCountsEngine); 0 or 1 keeps the
	// single-census engine. Requires an Enumerable protocol and is
	// incompatible with BackendDense.
	Shards int

	// Migration is the sharded engine's λ (per-agent per-epoch migration
	// probability): 0 keeps the fidelity default (DefaultMigrationRate),
	// a positive value sets λ for scenario runs, and a negative value
	// disables migration entirely (K isolated populations). Ignored when
	// Shards < 2.
	Migration float64

	// ShardEpoch overrides the sharded engine's interactions-per-epoch
	// (0 = DefaultShardEpoch). Ignored when Shards < 2.
	ShardEpoch uint64

	// Perturb attaches a perturbation (churn, corruption, scheduler bias —
	// see Perturbation and Combine) to every trial's engine before it runs.
	// Attachment constraints are backend-specific and surface as errors: the
	// dense backend needs an Enumerable protocol, the sharded backend
	// rejects bias weights. Nil runs unperturbed on the historical path.
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
	// than a panic inside the pool.
	switch cfg.Backend {
	case "", BackendDense, BackendAuto:
	case BackendCounts:
		var zero P
		if _, ok := any(zero).(Enumerable[S]); !ok {
			return nil, fmt.Errorf("sim: backend counts requires protocol type %T to implement Enumerable (finite state-space enumeration)", zero)
		}
	default:
		return nil, fmt.Errorf("sim: unknown backend %q (want dense, counts or auto)", cfg.Backend)
	}
	if cfg.Shards >= 2 {
		if cfg.Backend == BackendDense {
			return nil, fmt.Errorf("sim: sharded populations need a counts backend, not %q", cfg.Backend)
		}
		var zero P
		if _, ok := any(zero).(Enumerable[S]); !ok {
			return nil, fmt.Errorf("sim: sharded populations require protocol type %T to implement Enumerable", zero)
		}
	}
	if (cfg.CheckpointEvery > 0 || cfg.Resume) && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("sim: checkpointing/resume requires CheckpointDir")
	}
	if cfg.CheckpointEvery > 0 {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("sim: checkpoint dir: %w", err)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	results := make([]Result, cfg.Trials)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	recordErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				src := rng.NewStream(cfg.Seed, uint64(t))
				eng := newTrialEngine[S, P](factory(t), src, cfg)
				if cfg.Perturb != nil {
					// Attach before any Restore below: perturbed
					// checkpoints require the perturbation to already be
					// in place (see Perturbable).
					pe, ok := eng.(Perturbable)
					if !ok {
						recordErr(fmt.Errorf("sim: engine %T does not support perturbations", eng))
						continue
					}
					if err := pe.SetPerturbation(cfg.Perturb); err != nil {
						recordErr(fmt.Errorf("sim: trial %d: %w", t, err))
						continue
					}
				}
				for _, tp := range probes {
					if tp.Make == nil {
						continue
					}
					if err := AddProbe[S](eng, tp.Make(t), tp.Every); err != nil {
						panic(err) // unreachable: both backends implement ProbeTarget[S]
					}
				}
				var ck Checkpointable
				if cfg.CheckpointEvery > 0 || cfg.Resume {
					c, ok := eng.(Checkpointable)
					if !ok {
						recordErr(fmt.Errorf("sim: engine %T does not support checkpointing", eng))
						continue
					}
					ck = c
					path := TrialCheckpointPath(cfg.CheckpointDir, t)
					if cfg.Resume {
						data, err := ReadCheckpointFile(path)
						switch {
						case err == nil:
							if err := ck.Restore(data); err != nil {
								recordErr(fmt.Errorf("sim: trial %d resume from %s: %w", t, path, err))
								continue
							}
						case !os.IsNotExist(err):
							recordErr(fmt.Errorf("sim: trial %d resume: %w", t, err))
							continue
						}
					}
					if cfg.CheckpointEvery > 0 {
						ck.SetCheckpoint(cfg.CheckpointEvery, FileSink(path))
					}
				}
				res := eng.Run()
				res.Seed = uint64(t)
				results[t] = res
				if ck != nil {
					if err := ck.CheckpointErr(); err != nil {
						recordErr(fmt.Errorf("sim: trial %d: %w", t, err))
					}
				}
			}
		}()
	}
	for t := 0; t < cfg.Trials; t++ {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
	return results, firstErr
}

// newTrialEngine builds one trial's engine from the config. The historical
// default (empty Backend) is dense.
func newTrialEngine[S comparable, P Protocol[S]](proto P, src *rng.Source, cfg TrialConfig) Engine {
	if cfg.Shards >= 2 {
		en, ok := any(proto).(Enumerable[S])
		if !ok {
			panic(fmt.Sprintf("sim: sharded trial on non-Enumerable protocol %T", proto)) // unreachable: validated up front
		}
		e := NewShardedCountsEngine[S](en, src, cfg.Shards)
		e.MaxInteractions = cfg.MaxInteractions
		e.SetBatchPolicy(cfg.Batch)
		e.SetWorkers(cfg.EngineWorkers)
		if cfg.Migration != 0 {
			e.Migration = max(cfg.Migration, 0)
		}
		e.SetEpochLen(cfg.ShardEpoch)
		return e
	}
	backend := cfg.Backend
	if backend == "" {
		backend = BackendDense
	}
	eng, err := NewEngine[S, P](proto, src, backend)
	if err != nil {
		panic(err)
	}
	eng.SetBudget(cfg.MaxInteractions)
	switch e := eng.(type) {
	case *Runner[S, P]:
		e.TrackStates = cfg.TrackStates
	case *CountsEngine[S]:
		e.Policy = cfg.Batch
		e.Workers = cfg.EngineWorkers
	}
	return eng
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
