package experiments

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"popelect/internal/phaseclock"
	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// The resilience scenario grid: the idealized world (none) and the three
// built-in perturbations at fixed, size-scaled severities.
//
//   - churn: leave 2.5e-3 / join 8.3e-4 per interaction for the first 300·n
//     interactions — a net shrink to roughly half the population, the
//     regime where the frozen Γ(n₀) clock runs too large a resolution for
//     the live population (phaseclock.GammaFor measures the gap).
//   - corruption: a one-shot scramble of √n agents at step n·log₂ n — the
//     transient-fault benchmark of the self-stabilization literature
//     (Sudo et al.), timed to land mid-election.
//   - bias: census class 0 weighted 2× in the scheduler — a persistent
//     departure from the uniform pairing the protocols are analyzed under.
var resilienceScenarios = []struct {
	name string
	make func(n int) sim.Perturbation
}{
	{"none", func(n int) sim.Perturbation { return sim.Perturbation{} }},
	{"churn", func(n int) sim.Perturbation {
		return sim.Perturbation{Churn: sim.Churn{LeaveRate: 2.5e-3, JoinRate: 8.3e-4, Until: uint64(n) * 300}}
	}},
	{"corruption", func(n int) sim.Perturbation {
		return sim.Perturbation{Corrupt: sim.Corruption{
			K:  int64(math.Round(math.Sqrt(float64(n)))),
			At: uint64(float64(n) * math.Log2(float64(n))),
		}}
	}},
	{"bias", func(n int) sim.Perturbation { return sim.Perturbation{Bias: sim.Bias{Weights: []float64{2}}} }},
}

// resilienceAlgs is the protocol axis: the paper's protocol, its clocked
// O(log² n) baseline, and the clockless logarithmic-time entry — so the
// matrix separates what breaks because of the junta clock from what breaks
// in the election logic itself.
var resilienceAlgs = []string{"gs18", "gsu19", "sudo19"}

// resilienceBudget bounds each run in interactions per initial agent.
// Healthy cells stabilize well inside it (churn cells only after their
// 300·n active window); a cell that burns the budget is the reportable
// outcome.
const resilienceBudget = 2000

// Resilience measures election under adversarial and dynamic populations:
// a protocol × scenario × n matrix on the counts backend, each cell one
// run to stabilization or the budget, with a phase-span probe watching the
// census once per parallel-time unit (clocked protocols only).
//
// Reported per cell: convergence and the leader count over the live
// population, stabilization time in parallel-time units of the initial n₀
// (recovery time, for the perturbed cells), the live population at the
// end, the frozen clock resolution Γ(n₀) next to the Γ(live n) the
// derivation rule would pick for the final population, and the maximum
// bulk phase span against the Γ(n₀)/2 tearing threshold.
//
// Batch policy: the configured policy, with the zero-value auto default
// promoted to the adaptive controller — auto's exact tier would turn the
// sub-10⁵ cells into per-interaction runs.
// With cfg.SeriesDir set, one CSV row per cell lands in resilience.csv;
// the recorded bench-results/resilience.csv comes from this experiment.
func Resilience(cfg Config) []*Table {
	batch := cfg.Batch
	if batch == (sim.BatchPolicy{}) {
		batch = sim.BatchPolicy{Mode: sim.BatchAdaptive}
	}
	t := &Table{
		ID:    "resilience",
		Title: "election under adversarial & dynamic populations (counts backend)",
		Columns: []string{"n", "alg", "scenario", "converged", "leaders", "par.time(n₀)",
			"live n", "Γ(n₀)", "Γ(live)", "max bulk span", "Minter/s"},
	}
	var csvRows [][]string
	for _, n := range cfg.Sizes {
		for _, alg := range resilienceAlgs {
			entry, ok := protocols.Lookup(alg)
			if !ok {
				panic("experiments: resilience protocol " + alg + " not registered")
			}
			gamma := entry.DefaultGamma(n, protocols.Overrides{Gamma: cfg.Gamma})
			for si, sc := range resilienceScenarios {
				inst := protocols.MustNew(alg, n, protocols.Overrides{Gamma: cfg.Gamma})
				res, bulk, secs := resilienceRun(cfg, inst.Protocol, batch, gamma, sc.make(n), uint64(si))
				partime := float64(res.Interactions) / float64(n)
				span, g0, gLive := "—", "—", "—"
				if entry.Clocked {
					span, g0 = d(bulk), d(gamma)
					gLive = d(phaseclock.GammaFor(res.N))
				}
				mps := float64(res.Interactions) / secs / 1e6
				t.AddRow(d(n), alg, sc.name, fmt.Sprintf("%t", res.Converged),
					d(res.Leaders), f1(partime), d(res.N), g0, gLive, span, f1(mps))
				csvRows = append(csvRows, []string{d(n), alg, sc.name, batch.String(),
					fmt.Sprintf("%t", res.Converged), d(res.Leaders), f1(partime),
					fmt.Sprintf("%d", res.Interactions), d(res.N), g0, gLive, span,
					f2(secs), f1(mps)})
			}
		}
	}
	t.AddNote("scenarios: churn = leave 2.5e-3 / join 8.3e-4 per interaction over (0, 300·n] (net shrink to ≈ n/2); corruption = one-shot scramble of √n agents at step n·log₂ n; bias = census class 0 weighted 2×")
	t.AddNote("par.time(n₀) = interactions / initial n₀ (the live n drifts under churn); budget %d·n₀ — churn cells can only stabilize after their 300·n window closes, so their par.time is the recovery point", resilienceBudget)
	t.AddNote("Γ(n₀) is frozen at construction; Γ(live) = phaseclock.GammaFor of the final live population — the gap is the clock-resolution debt a shrinking population accumulates; bulk span ≥ Γ(n₀)/2 would mean tearing (probe once per parallel-time unit, clocked protocols only)")
	t.AddNote("sudo19 burning its budget under churn/corruption is the protocol, not a bug: it is not self-stabilizing — losing the last candidate (churn) or seeding a maxSeen epidemic above every live candidate's level (corruption) is irrecoverable, while the clocked protocols regenerate contenders and re-elect")
	if cfg.SeriesDir != "" {
		path := filepath.Join(cfg.SeriesDir, "resilience.csv")
		if err := stats.WriteTableCSVFile(path,
			[]string{"n", "alg", "scenario", "policy", "converged", "leaders",
				"partime_n0", "interactions", "live_n", "gamma0", "gamma_live",
				"bulk_span", "seconds", "minter_per_s"}, csvRows); err != nil {
			t.AddNote("CSV write failed: %v", err)
		} else {
			t.AddNote("CSV written to %s", path)
		}
	}
	return []*Table{t}
}

// resilienceRun executes one matrix cell to stabilization or the budget,
// returning the run result, the maximum bulk phase span (0 for clockless
// protocols), and the wall-clock seconds.
func resilienceRun(cfg Config, pr sim.Protocol, batch sim.BatchPolicy, gamma int, p sim.Perturbation, scenario uint64) (sim.Result, int, float64) {
	n := pr.N()
	src := rng.NewStream(cfg.Seed+61, uint64(n)*8+scenario)
	eng, meter := spanEngine(pr, src, sim.TrialConfig{Backend: sim.BackendCounts, Batch: batch,
		EngineWorkers: cfg.EngineWorkers, Perturb: p, MaxInteractions: resilienceBudget * uint64(n)}, gamma)
	start := time.Now()
	res := eng.Run()
	secs := time.Since(start).Seconds()
	bulk := 0
	if meter != nil {
		bulk = meter.MaxBulk()
	}
	return res, bulk, secs
}
