package sim

import (
	"fmt"

	"popelect/internal/rng"
)

// Engine is the common interface of the simulation backends: execute
// interactions (individually or to completion), expose the per-class census,
// and snapshot the outcome as a Result.
//
// Two backends implement it: Runner (the "dense" backend) keeps every agent
// in a flat array and simulates one interaction at a time; CountsEngine (the
// "counts" backend) keeps only the state→count census and advances whole
// batches of interactions with aggregated random draws, which makes
// populations of 10⁸–10⁹ agents simulable. Engines are single-goroutine; to
// parallelize, create one engine per trial (see RunTrials).
//
// Both backends implement ProbeTarget: census probes (AddProbe, Census) are
// the backend-agnostic observation mechanism.
type Engine interface {
	// Reset reinitializes the population to the protocol's initial
	// configuration. The PRNG is not reseeded.
	Reset()

	// SetBudget caps Run's interaction count; 0 means DefaultBudget(n).
	SetBudget(max uint64)

	// Run executes interactions until the protocol stabilizes or the
	// budget is exhausted, and returns the Result.
	Run() Result

	// RunSteps executes (at least) k further interactions without
	// checking for stability, returning the current Result snapshot.
	RunSteps(k uint64) Result

	// Steps returns the number of interactions executed so far.
	Steps() uint64

	// Counts returns the live per-class census. Callers must treat it as
	// read-only.
	Counts() []int64

	// Leaders returns the current number of leader-output agents.
	Leaders() int
}

// StateTracker is implemented by engines whose distinct-state accounting is
// optional and must be switched on (the dense backend; the counts backend
// tracks distinct states inherently and always reports them).
type StateTracker interface {
	SetTrackStates(bool)
}

// Enumerable extends Protocol with finite state-space enumeration, the
// property the counts backend relies on: because agents are anonymous and
// transitions depend only on states, a configuration over a finite state
// space is fully described by its state→count vector.
//
// States must return a finite superset of every state reachable from the
// protocol's initial configurations (unreachable extras are harmless — they
// simply never acquire counts; the engine indexes states lazily as they
// appear). Tests use the enumeration to validate census invariants over the
// whole space.
type Enumerable[S comparable] interface {
	Protocol[S]
	States() []S
}

// WorkerConfigurable is implemented by engines whose internal work can fan
// out over a bounded worker pool (the counts backend's sharded batch
// sampling). SetWorkers caps the shard count; 0 or 1 selects the serial
// path. For a fixed worker count runs are byte-identical regardless of
// physical cores; different worker counts yield statistically equivalent
// but different trajectories (see CountsEngine.Workers). The dense backend
// is inherently sequential and does not implement this.
type WorkerConfigurable interface {
	SetWorkers(int)
}

// WorkerReporter is implemented by engines that can report how much
// concurrency they actually used, as opposed to what SetWorkers requested:
// the counts backend clamps its batch fan-out to occupied/2 and drops
// short batches to the serial path, so the realized width can be well
// below the configured one. EffectiveWorkers returns the widest fan-out
// used since the last Reset; CLIs log it once so capacity tables aren't
// misread.
type WorkerReporter interface {
	EffectiveWorkers() int
}

// DeltaCompiler is implemented by protocols that can compile their
// transition function into a memoized fast path (compose.Protocol compiles
// its interpreted module pipeline into a flat pair-table memo). CompileDelta
// returns a function equivalent to Delta but private to the caller — the
// returned closure may carry single-goroutine cache state, so every engine
// must obtain its own — or nil when compilation does not apply, in which
// case callers use Delta directly. NewRunner consults this automatically.
type DeltaCompiler[S comparable] interface {
	CompileDelta() func(r, i S) (S, S)
}

// Backend selects a simulation engine implementation.
type Backend string

// Available backends.
const (
	// BackendDense is the per-agent array runner: exact, supports hooks,
	// observers and agent identities, O(1) work per interaction.
	BackendDense Backend = "dense"

	// BackendCounts is the state-census batch engine: requires an
	// Enumerable protocol, simulates interactions in aggregated batches,
	// and reaches populations of 10⁸–10⁹ agents. Agent identities do not
	// exist (Result.LeaderID is always -1).
	BackendCounts Backend = "counts"

	// BackendAuto picks counts for Enumerable protocols on populations of
	// at least AutoCountsMinN agents, dense otherwise.
	BackendAuto Backend = "auto"
)

// AutoCountsMinN is the population size at which BackendAuto switches from
// the dense to the counts backend (when the protocol supports it). Below
// this size the dense backend's exact per-interaction scheduling is cheap
// and strictly more informative; above it the counts backend's batching wins
// by orders of magnitude.
const AutoCountsMinN = 1 << 21

// ParseBackend converts a CLI-style string into a Backend. The empty string
// means BackendAuto.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "":
		return BackendAuto, nil
	case BackendDense, BackendCounts, BackendAuto:
		return Backend(s), nil
	}
	return "", fmt.Errorf("sim: unknown backend %q (want dense, counts or auto)", s)
}

// NewEngine creates the backend selected by b for proto. It returns an
// error for BackendCounts if the protocol does not implement Enumerable.
func NewEngine[S comparable, P Protocol[S]](proto P, src *rng.Source, b Backend) (Engine, error) {
	switch b {
	case "", BackendDense:
		return NewRunner[S, P](proto, src), nil
	case BackendCounts:
		e, ok := any(proto).(Enumerable[S])
		if !ok {
			return nil, fmt.Errorf("sim: backend counts requires protocol %s to implement Enumerable (finite state-space enumeration)", proto.Name())
		}
		return NewCountsEngine[S](e, src), nil
	case BackendAuto:
		if e, ok := any(proto).(Enumerable[S]); ok && proto.N() >= AutoCountsMinN {
			return NewCountsEngine[S](e, src), nil
		}
		return NewRunner[S, P](proto, src), nil
	}
	return nil, fmt.Errorf("sim: unknown backend %q", b)
}
