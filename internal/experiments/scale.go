package experiments

import (
	"fmt"
	"time"

	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// Scale measures the paper's asymptotic regime on the counts backend,
// which represents the population as a state→count census and advances
// interactions in aggregated batches. This is the experiment the backend
// architecture exists for — populations of 10⁸–10⁹ agents (pass e.g.
// `-sizes 100000000` to cmd/paperbench) where the dense per-agent runner
// would need hours per trial. The protocol set is the registry's
// counts-capable slice: the election protocols plus the composed scenario
// protocols, skipping entries whose practical size cap (slow's Θ(n²)
// interactions) excludes the configured sizes.
func Scale(cfg Config) []*Table {
	trials := cfg.Trials
	if trials > 3 {
		trials = 3 // stabilization at scale is concentrated; a few trials suffice
	}
	t := &Table{
		ID:    "scale",
		Title: "counts-backend stabilization at large n",
		Columns: []string{"n", "protocol", "converged", "par.time mean",
			"interactions", "distinct states (max)", "Minter/s"},
	}
	for _, n := range cfg.Sizes {
		for _, e := range protocols.All() {
			if e.MaxN != 0 && n > e.MaxN {
				continue
			}
			inst, err := e.New(n, protocols.Overrides{Gamma: cfg.Gamma})
			if err != nil {
				t.AddRow(d(n), e.Name, "config error: "+err.Error(), "—", "—", "—", "—")
				continue
			}
			if _, ok := inst.Protocol.(sim.Enumerable); !ok {
				continue // dense-only protocols have no large-n story
			}
			runScaleRow(t, e.Name, n, trials, cfg, inst.Protocol)
		}
	}
	t.AddNote("counts backend, batch policy %s (exact per-interaction mode below n=%d)", cfg.Batch, sim.ExactMaxN)
	t.AddNote("the adaptive default bounds per-batch census drift; fixed batch lengths trade fidelity for throughput (see the biassweep experiment)")
	return []*Table{t}
}

// trialSource derives the PRNG stream for one scale trial.
func trialSource(cfg Config, trial int) *rng.Source {
	return rng.NewStream(cfg.Seed+31, uint64(trial))
}

func runScaleRow(t *Table, name string, n, trials int, cfg Config, pr sim.Protocol) {
	conv := 0
	var sumPar float64
	var interactions uint64
	var distinct int
	start := time.Now()
	for tr := 0; tr < trials; tr++ {
		eng, err := sim.NewTrialEngine(pr, trialSource(cfg, tr), sim.TrialConfig{Backend: sim.BackendCounts,
			Batch: cfg.Batch, EngineWorkers: cfg.EngineWorkers})
		if err != nil {
			t.AddRow(d(n), name, "engine error: "+err.Error(), "—", "—", "—", "—")
			return
		}
		res := eng.Run()
		if res.Converged {
			conv++
		}
		sumPar += res.ParallelTime()
		interactions += res.Interactions
		if res.DistinctStates > distinct {
			distinct = res.DistinctStates
		}
	}
	elapsed := time.Since(start).Seconds()
	t.AddRow(d(n), name, fmt.Sprintf("%d/%d", conv, trials), f1(sumPar/float64(trials)),
		fmt.Sprintf("%.3g", float64(interactions)), d(distinct),
		f1(float64(interactions)/elapsed/1e6))
}
