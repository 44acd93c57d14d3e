package main

import (
	"fmt"
	"math"

	"popelect/internal/core"
	"popelect/internal/protocols/gs18"
	"popelect/internal/sim"
)

// workload is one benchmark configuration. Every trial of a workload builds
// its engine from scratch through the protocol registry, times a fixed slab
// of slab·n interactions from the initial configuration, then finishes the
// election and checks it.
type workload struct {
	name    string
	proto   string // registry name
	n       int
	backend sim.Backend
	// policy is applied to counts engines when set; nil keeps the engine's
	// auto policy.
	policy  *sim.BatchPolicy
	workers int // sampler goroutines of a counts engine (0: serial)
	// probeDiv > 0 attaches a census probe every n/probeDiv interactions;
	// ckpt attaches a checkpoint every n interactions into memory.
	probeDiv uint64
	ckpt     bool
	slab     uint64 // slab length in units of n
	// trials is the number of trials of a 10-second run; a run of
	// -seconds s makes round(trials·s/10) of them, at least one. The count
	// never depends on how fast the trials ran, so both sides of a
	// comparison do the same work.
	trials int
	// setupReps is the number of back-to-back setups one setup_s sample
	// times, enough for a sample of about 300 ms: a single millisecond
	// setup reads whatever a shared host did in that millisecond.
	setupReps int
	// ownFinish finishes the election on the workload's own policy. Off,
	// counts engines finish on fixed n/8 batches, which full-scale runs need
	// to stay within their time.
	ownFinish bool
	typed     func(n int) (typedProto, error)
}

// setupSamples is the number of setup_s samples a run takes; setup_s is
// their median.
const setupSamples = 5

// typedProto is the typed side of a registry protocol that the type-erased
// protocols.Instance does not expose: its state enumeration as packed words
// (for the reached-states check) and its transition function (for the
// per-layer delta timings).
type typedProto struct {
	states []uint32
	delta  func(r, i uint32) (uint32, uint32)
	// compile returns the memoized transition function the dense runner
	// uses; nil when the protocol has no compiler.
	compile func() func(r, i uint32) (uint32, uint32)
}

func gsu19Typed(n int) (typedProto, error) {
	p, err := core.New(core.DefaultParams(n))
	if err != nil {
		return typedProto{}, err
	}
	states := p.States()
	words := make([]uint32, len(states))
	for k, s := range states {
		words[k] = uint32(s)
	}
	return typedProto{
		states: words,
		delta: func(r, i uint32) (uint32, uint32) {
			a, b := p.Delta(core.State(r), core.State(i))
			return uint32(a), uint32(b)
		},
	}, nil
}

func gs18Typed(n int) (typedProto, error) {
	p, err := gs18.New(gs18.DefaultParams(n))
	if err != nil {
		return typedProto{}, err
	}
	return typedProto{states: p.States(), delta: p.Delta, compile: p.CompileDelta}, nil
}

// workloads is the benchmark, in BENCHMARK.json order. Each entry's comment
// says which code it is there to exercise.
var workloads = []workload{
	// The paper's protocol at the scale the counts engine exists for: the
	// adaptive batch sampler (hypergeometric chains, silent-column
	// classification), the parallel fan-out, and the O(n) Init loop of
	// CountsEngine.Reset in setup.
	{
		name: "gsu19-counts-1e8", proto: "gsu19", n: 100_000_000,
		backend: sim.BackendCounts, workers: 2,
		slab: 400, trials: 1, setupReps: 1, typed: gsu19Typed,
	},
	// The same engine cut into many short scheduling units: a census probe
	// every n/16 and an in-memory checkpoint every n split batches and
	// encode snapshots, the traffic of probed and checkpointed runs.
	{
		name: "gsu19-counts-probed-1m", proto: "gsu19", n: 1 << 20,
		backend: sim.BackendCounts, policy: &sim.BatchPolicy{Mode: sim.BatchAdaptive},
		probeDiv: 16, ckpt: true,
		slab: 400, trials: 2, setupReps: 32, typed: gsu19Typed,
	},
	// The counts engine's exact per-interaction path (auto picks it below
	// sim.ExactMaxN): Fenwick sampling and the delta table, the adaptive
	// endgame fallback at every n. GS18 is never silent, so the reactive
	// skip stays off.
	{
		name: "gs18-exact-64k", proto: "gs18", n: 1 << 16, backend: sim.BackendCounts,
		slab: 400, trials: 3, setupReps: 256, typed: gs18Typed,
	},
	// The dense runner with the compose kit's compiled DeltaMemo, the
	// backend auto picks below sim.AutoCountsMinN for every small-n
	// experiment; it never touches the counts engine.
	{
		name: "gs18-dense-128k", proto: "gs18", n: 1 << 17, backend: sim.BackendDense,
		slab: 400, trials: 4, setupReps: 96, typed: gs18Typed,
	},
}

// runTrials is the number of trials a run of secs seconds makes.
func (w workload) runTrials(secs float64) int {
	return max(1, int(math.Round(float64(w.trials)*secs/10)))
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for k, w := range workloads {
		names[k] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
