// Package popelect is a library of population protocols for leader
// election, built as a faithful reproduction of "Almost Logarithmic-Time
// Space Optimal Leader Election in Population Protocols" (Gąsieniec,
// Stachowiak, Uznański — SPAA 2019).
//
// The headline algorithm (Algorithm GSU19) elects a unique leader among n
// indistinguishable agents under a uniform random pairwise scheduler using
// O(log log n) states per agent in O(log n · log log n) expected parallel
// time — and it always elects exactly one leader (a Las Vegas algorithm).
// The package also ships the comparison baselines of the paper's Table 1
// (the constant-state slow protocol, GS18, and a BKKO18-style lottery),
// composed scenario protocols built from the same mechanism kit
// (internal/compose), and the substrates they are built from (junta-driven
// phase clocks, synthetic coins, one-way epidemics), all runnable through
// one simulation engine. Every protocol is registered in the unified
// registry (internal/protocols); Algorithms and Protocols list it.
//
// Quick start:
//
//	res, err := popelect.Elect(100000, popelect.WithSeed(42))
//	// res.LeaderID is the unique elected agent.
//
// Non-election protocols (majority, broadcast) run through Stabilize. For
// experiment-grade access (census instrumentation, custom parameters,
// trial batches) use the internal packages through the cmd/ tools, or the
// registry's Instance handles to drive the engine directly.
package popelect

import (
	"fmt"

	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// Algorithm selects a protocol from the registry by name.
type Algorithm string

// The paper's leader-election algorithms (the full registry holds more;
// see Protocols).
const (
	// GSU19 is the paper's protocol: O(log log n) states,
	// O(log n·log log n) expected parallel time, always correct.
	GSU19 Algorithm = "gsu19"
	// GS18 is the SODA 2018 baseline: O(log log n) states, O(log² n) time.
	GS18 Algorithm = "gs18"
	// Lottery is a BKKO18-style baseline: O(log n) states, O(log² n) time.
	Lottery Algorithm = "lottery"
	// Slow is the constant-state Θ(n)-time protocol of AAD+04.
	Slow Algorithm = "slow"
)

// Algorithms lists the registered leader-election algorithms.
func Algorithms() []Algorithm {
	var out []Algorithm
	for _, e := range protocols.All() {
		if e.Elects {
			out = append(out, Algorithm(e.Name))
		}
	}
	return out
}

// Protocols lists every registered protocol name, including the
// non-election scenario protocols runnable through Stabilize.
func Protocols() []string { return protocols.Names() }

// Result reports one run.
type Result struct {
	// LeaderID is the index of the unique elected agent. It is -1 under
	// the counts backend, where agents are anonymous (see WithBackend),
	// and for non-election protocols.
	LeaderID int
	// Leaders is the number of leader-output agents at stabilization
	// (1 for elections; 0 for non-election protocols).
	Leaders int
	// Interactions is the number of scheduler steps until stabilization.
	Interactions uint64
	// ParallelTime is Interactions / n, the paper's time measure.
	ParallelTime float64
	// DistinctStates is the number of distinct agent states used during
	// the run (an empirical space measure), if state tracking was on.
	DistinctStates int
	// EffectiveWorkers is the concurrency the engine actually used (the
	// counts backend clamps its batch fan-out to the census width). 1 for
	// the serial paths and the dense backend.
	EffectiveWorkers int
	// Timeline is the census timeline recorded by WithCensusTimeline
	// (nil without it): one sample per interval plus the initial
	// configuration and the stabilization point.
	Timeline []CensusPoint
}

// CensusPoint is one sample of a census timeline: the run's dynamics at a
// given interaction count. It is backend-agnostic — recorded through the
// census probe pipeline on the dense and the counts engine alike.
type CensusPoint struct {
	// Step is the interaction count of the sample.
	Step uint64
	// Leaders is the number of leader-output agents.
	Leaders int
	// States is the number of distinct occupied states at the sample
	// (not cumulative; compare Result.DistinctStates).
	States int
}

// options is the engine configuration plus the API-only settings.
type options struct {
	cfg           sim.TrialConfig
	backendErr    error // a malformed WithBackend, reported by the run
	batchErr      error // a malformed WithBatchPolicy, likewise
	scenarioErr   error // a malformed WithScenario spec, likewise
	overrides     protocols.Overrides
	timelineEvery uint64
	ckptPath      string
	ckptEvery     uint64
	resumePath    string
}

// Option configures a run.
type Option func(*options)

// WithSeed makes the run deterministic for a given seed.
func WithSeed(seed uint64) Option { return func(o *options) { o.cfg.Seed = seed } }

// WithBudget caps the number of interactions (0 = a generous default).
func WithBudget(max uint64) Option { return func(o *options) { o.cfg.MaxInteractions = max } }

// WithGamma overrides the phase-clock resolution Γ of clocked protocols.
// The default is derived from the population size — Γ(n) =
// phaseclock.DefaultGamma(n), the next even value ≥ 2·log₂ n floored at
// 36 — so that the clock's wrap window Γ/2 always clears the natural
// ~log n phase spread; a fixed override below that tears the clock at
// large n.
func WithGamma(gamma int) Option { return func(o *options) { o.overrides.Gamma = gamma } }

// WithPhi overrides the coin-level cap Φ (GSU19, GS18 and the clocked
// scenario protocols).
func WithPhi(phi int) Option { return func(o *options) { o.overrides.Phi = phi } }

// WithPsi overrides the drag-counter range Ψ (GSU19).
func WithPsi(psi int) Option { return func(o *options) { o.overrides.Psi = psi } }

// WithStateTracking records the number of distinct states used.
func WithStateTracking() Option { return func(o *options) { o.cfg.TrackStates = true } }

// WithBackend selects the simulation backend: "dense" (per-agent array,
// exact, the default), "counts" (state-census batch engine for populations
// of 10⁸–10⁹ agents; Result.LeaderID is -1 because agents are anonymous),
// or "auto" (counts for large enumerable protocols, dense otherwise).
func WithBackend(backend string) Option {
	return func(o *options) {
		o.cfg.Backend, o.backendErr = sim.BackendDense, nil
		if backend != "" {
			o.cfg.Backend, o.backendErr = sim.ParseBackend(backend)
		}
	}
}

// WithBatchPolicy selects the counts backend's batch scheduling policy:
// "auto" (the default: exact below 2¹⁷ agents, drift-bounded adaptive
// batching — the faithful regime — up to 2²⁷, fixed n/8 batches beyond
// for throughput), "adaptive", "exact", or a positive integer fixing the
// batch length (fast but biases stabilization times upward ≈10% at n/8 —
// see sim.BatchPolicy). The dense backend ignores it. See also
// WithBatchEps.
func WithBatchPolicy(policy string) Option {
	return func(o *options) {
		eps := o.cfg.Batch.Eps
		o.cfg.Batch, o.batchErr = sim.ParseBatchPolicy(policy)
		o.cfg.Batch.Eps = eps
	}
}

// WithBatchEps tunes the adaptive batch controller's drift bound ε — the
// maximum fraction by which any state's expected census count may move
// during one aggregated batch (0 keeps the default). Smaller ε tracks the
// sequential scheduler more closely at proportionally lower throughput.
// Only meaningful with the counts backend under an adaptive batch policy.
func WithBatchEps(eps float64) Option { return func(o *options) { o.cfg.Batch.Eps = eps } }

// WithWorkers caps the simulation engine's internal worker pool — on the
// counts backend, the number of sampling shards each batch fans out to
// (the dense backend is inherently sequential and ignores it). The
// determinism contract: for a fixed worker count, runs with the same seed
// are byte-identical on any machine; different worker counts consume
// randomness in different orders and give statistically equivalent but
// different trajectories, exactly like changing the seed. 0 (the default)
// keeps the serial path.
func WithWorkers(workers int) Option {
	return func(o *options) {
		// 0 and 1 both sample serially; 0 is what checkpoints record.
		o.cfg.EngineWorkers = 0
		if workers > 1 {
			o.cfg.EngineWorkers = workers
		}
	}
}

// WithCensusTimeline records a census sample (leader count, occupied
// states) every interval interactions into Result.Timeline, plus the
// initial configuration and the stabilization point. It works on every
// backend; on the counts backend the engine splits its batches at sample
// boundaries, so very small intervals cost throughput.
func WithCensusTimeline(interval uint64) Option {
	return func(o *options) { o.timelineEvery = interval }
}

// WithCheckpoint snapshots the engine to path about every `every`
// interactions, at the next scheduling-unit boundary (see
// sim.Checkpointable). Batches are never shortened to land a snapshot, so
// on batched runs checkpointing leaves the trajectory byte-identical.
// Exact-mode chunks do clamp to the cadence, so once the counts engine's
// silent-step skip engages, a checkpointing run agrees with an unchunked
// one in law, not byte for byte. The file is written atomically, so a kill
// mid-write leaves the previous snapshot intact. Combine with WithResume on the same path to make a run
// restartable; by the resume-equals-replay law the restarted run finishes
// byte-identically to an uninterrupted one.
func WithCheckpoint(path string, every uint64) Option {
	return func(o *options) { o.ckptPath = path; o.ckptEvery = every }
}

// WithResume restores the engine from the checkpoint file at path before
// running. A missing file starts the run fresh (the first run of a
// checkpointed loop has nothing to resume from); any other read, format or
// configuration mismatch is an error. The run's configuration — protocol,
// parameters, n, backend, and any WithCensusTimeline cadence — must match
// the run that wrote the snapshot.
func WithResume(path string) Option {
	return func(o *options) { o.resumePath = path }
}

// WithChurn subjects the run to population churn: agents leave uniformly
// at random at expected rate leave per interaction, and fresh agents join
// in a random initial state at expected rate join, so the population size
// becomes time-varying. Result.Leaders and stabilization refer to the live
// population at the end. Works on every backend; the dense backend
// additionally requires an enumerable protocol. It replaces any churn set
// before it (by itself or WithScenario).
func WithChurn(leave, join float64) Option {
	return func(o *options) { o.cfg.Perturb.Churn = sim.Churn{LeaveRate: leave, JoinRate: join} }
}

// WithCorruption scrambles the states of k uniformly chosen agents to
// uniformly random enumerated states once, at interaction step at — the
// adversarial transient fault the self-stabilization literature recovers
// from. Works on every backend (the counts backend draws the k agents with
// one multivariate-hypergeometric census split). It replaces any
// corruption set before it.
func WithCorruption(k int, at uint64) Option {
	return func(o *options) { o.cfg.Perturb.Corrupt = sim.Corruption{K: int64(k), At: at} }
}

// WithBias skews the scheduler away from uniformity: an agent in census
// class c is chosen for an interaction with relative weight weights[c]
// (missing classes weigh 1). Supported on both backends. It replaces any
// bias set before it.
func WithBias(weights ...float64) Option {
	return func(o *options) { o.cfg.Perturb.Bias = sim.Bias{Weights: weights} }
}

// WithScenario attaches perturbations from the CLIs' compact spec strings
// (empty specs are skipped; all empty is a no-op):
//
//	churn:   "RATE" or "LEAVE:JOIN", optionally "@UNTIL" (per-interaction
//	         rates, e.g. "2.5e-3:8.3e-4@3e6")
//	corrupt: "K@STEP" (one-shot scramble of K agents at STEP) or
//	         "RATE[@UNTIL]" (continuous per-interaction scramble)
//	bias:    "CLASS=WEIGHT,..." non-uniform scheduler weights per census
//	         class (missing classes weigh 1)
//
// Malformed specs surface as errors from the run; a later WithScenario
// does not clear them. Each non-empty spec replaces its kind as the typed
// options (WithChurn, WithCorruption, WithBias) do, so the last option
// naming a kind wins and options naming different kinds combine.
func WithScenario(churn, corrupt, bias string) Option {
	return func(o *options) {
		p, err := sim.ParsePerturbations(churn, corrupt, bias)
		if err != nil {
			o.scenarioErr = err
			return
		}
		if churn != "" {
			o.cfg.Perturb.Churn = p.Churn
		}
		if corrupt != "" {
			o.cfg.Perturb.Corrupt = p.Corrupt
		}
		if bias != "" {
			o.cfg.Perturb.Bias = p.Bias
		}
	}
}

// Elect runs the paper's protocol on a population of n agents and returns
// the elected leader. It is deterministic given WithSeed.
func Elect(n int, opts ...Option) (Result, error) {
	return ElectWith(GSU19, n, opts...)
}

// ElectWith runs the chosen leader-election algorithm on a population of n
// agents and verifies that exactly one leader was elected.
func ElectWith(alg Algorithm, n int, opts ...Option) (Result, error) {
	entry, ok := protocols.Lookup(string(alg))
	if !ok {
		return Result{}, fmt.Errorf("popelect: unknown algorithm %q (known: %v)", alg, Protocols())
	}
	if !entry.Elects {
		return Result{}, fmt.Errorf("popelect: %s is not a leader-election protocol (%s); run it with Stabilize",
			alg, entry.Summary)
	}
	res, err := Stabilize(alg, n, opts...)
	if err != nil {
		return Result{}, err
	}
	if res.Leaders != 1 {
		return Result{}, fmt.Errorf("popelect: %s stabilized with %d leaders", alg, res.Leaders)
	}
	return res, nil
}

// Stabilize runs any registered protocol (election or scenario) on a
// population of n agents until its stability predicate holds, without
// interpreting the output. It is deterministic given WithSeed.
func Stabilize(alg Algorithm, n int, opts ...Option) (Result, error) {
	o := options{cfg: sim.TrialConfig{Seed: 1}}
	for _, opt := range opts {
		opt(&o)
	}
	entry, ok := protocols.Lookup(string(alg))
	if !ok {
		return Result{}, fmt.Errorf("popelect: unknown protocol %q (known: %v)", alg, Protocols())
	}
	inst, err := entry.New(n, o.overrides)
	if err != nil {
		return Result{}, err
	}
	return run(inst, o)
}

func run(inst protocols.Instance, o options) (Result, error) {
	for _, err := range []error{o.backendErr, o.batchErr, o.scenarioErr} {
		if err != nil {
			return Result{}, fmt.Errorf("popelect: %w", err)
		}
	}
	if o.ckptPath != "" && o.ckptEvery == 0 {
		return Result{}, fmt.Errorf("popelect: WithCheckpoint needs a positive interval")
	}
	eng, err := sim.NewTrialEngine(inst.Protocol, rng.New(o.cfg.Seed), o.cfg)
	if err != nil {
		return Result{}, fmt.Errorf("popelect: %w", err)
	}
	var timeline []CensusPoint
	var record sim.Probe
	if o.timelineEvery > 0 {
		record = func(step uint64, v sim.CensusView) {
			if len(timeline) > 0 && timeline[len(timeline)-1].Step == step {
				return // run ended exactly on a sample boundary
			}
			timeline = append(timeline, CensusPoint{Step: step, Leaders: v.Leaders(), States: v.Occupied()})
		}
		if err := sim.AddProbe(eng, record, o.timelineEvery); err != nil {
			return Result{}, fmt.Errorf("popelect: %w", err)
		}
	}
	// Restore after probes are registered (the snapshot's probe schedules
	// must match the engine's probe set) and before the timeline's initial
	// sample, which records the restored census at the restored step.
	if err := sim.AttachCheckpoint(eng, o.resumePath, o.ckptPath, o.ckptEvery); err != nil {
		return Result{}, fmt.Errorf("popelect: %w", err)
	}
	if record != nil {
		cv, err := sim.Census(eng)
		if err != nil {
			return Result{}, fmt.Errorf("popelect: %w", err)
		}
		record(eng.Steps(), cv)
	}
	res := eng.Run()
	if err := eng.CheckpointErr(); err != nil {
		return Result{}, fmt.Errorf("popelect: %w", err)
	}
	if !res.Converged {
		return Result{}, fmt.Errorf("popelect: %s did not stabilize within %d interactions",
			inst.Protocol.Name(), res.Interactions)
	}
	effective := 1
	if wr, ok := eng.(sim.WorkerReporter); ok {
		effective = wr.EffectiveWorkers()
	}
	return Result{
		LeaderID:         res.LeaderID,
		Leaders:          res.Leaders,
		Interactions:     res.Interactions,
		ParallelTime:     res.ParallelTime(),
		DistinctStates:   res.DistinctStates,
		EffectiveWorkers: effective,
		Timeline:         timeline,
	}, nil
}
