package experiments

import (
	"fmt"
	"path/filepath"

	"popelect/internal/phaseclock"
	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// clockSpanBudget bounds each clockspan run, in interactions per agent.
// Healthy runs stabilize at less than half of it (GS18, the slowest,
// measures ≈940 parallel time at n = 10⁷ with the derived Γ); a torn
// clock burns the whole budget (tearing degrades fast elimination to
// pairwise duels — and a torn census occupies ~2× the states, so those
// runs are also the slowest to simulate), so the budget is what turns
// "effectively never finishes" into a bounded, reportable row.
const clockSpanBudget = 2000

// ClockSpan re-runs the clock-tearing traces that motivated the derived
// Γ(n) as a first-class experiment: GS18 and GSU19 on the counts backend
// under the configured batch policy (default auto — the faithful adaptive
// controller at these sizes), with a census probe measuring the cyclic
// span of occupied phases once per parallel-time unit. For each size it
// reports the legacy hardwired Γ = 36 against the derived Γ(n) side by
// side, over a few independent trials per cell: tearing is an absorbing
// random event whose per-run probability climbs through the 10⁷ decade at
// Γ = 36 (one seed stabilizes at the usual pace, the next smears over all
// 36 phases and blows the budget with thousands of candidates left), so a
// single trial under-reports it — the torn-trials count is the honest
// statistic. The signature itself is a bulk span at or past the Γ/2 wrap
// window; the fix is every trial staying well under it with the derived
// resolution. The intended full-scale invocation is
//
//	paperbench -exp clockspan -sizes 1000000,10000000 -series-dir bench-results
//
// With cfg.SeriesDir set, one CSV row per trial lands in clockspan.csv.
func ClockSpan(cfg Config) []*Table {
	trials := cfg.Trials
	if trials > 3 {
		trials = 3 // torn trials cost the full budget; a few suffice for the signature
	}
	t := &Table{
		ID:    "clockspan",
		Title: "Phase-clock span under faithful batching: legacy Γ=36 vs derived Γ(n)",
		Columns: []string{"n", "alg", "Γ", "policy", "converged", "torn",
			"par.time", "max bulk span", "max full span", "Γ/2"},
	}
	var csvRows [][]string
	for _, n := range cfg.Sizes {
		gammas := []struct {
			label string
			gamma int
		}{{"36 (legacy)", phaseclock.MinDefaultGamma}}
		if g := gammaFor(cfg, n); g != phaseclock.MinDefaultGamma {
			gammas = append(gammas, struct {
				label string
				gamma int
			}{fmt.Sprintf("%d (derived)", g), g})
		}
		for _, gm := range gammas {
			// The two protocols whose clock sensitivity motivated the
			// derived Γ(n), resolved through the registry (GS18 is the
			// clock-sensitive baseline, GSU19 the paper's protocol with
			// its passive/drag safety net).
			for _, alg := range []string{"gs18", "gsu19"} {
				conv, torn := 0, 0
				maxBulk, maxFull := 0, 0
				var sumPar float64
				for trial := 0; trial < trials; trial++ {
					inst := protocols.MustNew(alg, n, protocols.Overrides{Gamma: gm.gamma})
					res, bulk, full := clockSpanRun(cfg, inst, gm.gamma, trial)
					if res.Converged {
						conv++
						sumPar += res.ParallelTime()
					}
					if bulk >= gm.gamma/2 {
						torn++
					}
					if bulk > maxBulk {
						maxBulk = bulk
					}
					if full > maxFull {
						maxFull = full
					}
					csvRows = append(csvRows, []string{d(n), alg, d(gm.gamma), d(trial),
						cfg.Batch.String(), fmt.Sprintf("%t", res.Converged),
						f1(res.ParallelTime()), d(bulk), d(full), d(gm.gamma / 2)})
				}
				par := "—"
				if conv > 0 {
					par = f1(sumPar / float64(conv))
				}
				t.AddRow(d(n), alg, gm.label, cfg.Batch.String(),
					fmt.Sprintf("%d/%d", conv, trials), fmt.Sprintf("%d/%d", torn, trials),
					par, d(maxBulk), d(maxFull), d(gm.gamma/2))
			}
		}
	}
	t.AddNote("bulk span = smallest cyclic window holding 99%% of the population (phaseclock.MassSpan), full span = all occupied phases; both are maxima over one probe per parallel-time unit, then over trials")
	t.AddNote("torn = trials whose bulk span reached Γ/2; non-converged trials ran to the %d·n budget; par.time averages converged trials", clockSpanBudget)
	t.AddNote("bulk span ≥ Γ/2 is the tearing signature: the mass straddles the CyclicMax wrap window, passes through 0 stop delimiting rounds, fast elimination degrades to pairwise duels (isolated stragglers in the full span are harmless — the bulk re-drags them)")
	if cfg.SeriesDir != "" {
		path := filepath.Join(cfg.SeriesDir, "clockspan.csv")
		if err := stats.WriteTableCSVFile(path,
			[]string{"n", "alg", "gamma", "trial", "policy", "converged",
				"partime", "bulk_span", "full_span", "half_gamma"},
			csvRows); err != nil {
			t.AddNote("CSV write failed: %v", err)
		} else {
			t.AddNote("CSV written to %s", path)
		}
	}
	return []*Table{t}
}

// clockSpanRun executes one protocol trial to stabilization (or the span
// budget) on the counts backend with a phase-span probe attached,
// returning the run result, the maximum bulk (99%-mass) span and the
// maximum full occupied-phase span observed across probes. Phases are read
// through the registry's packed-word view — every clocked protocol packs
// its phase in the low byte (Entry.Clocked).
func clockSpanRun(cfg Config, inst protocols.Instance, gamma, trial int) (sim.Result, int, int) {
	n := inst.N()
	eng, meter := spanEngine(inst, rng.NewStream(cfg.Seed+53, uint64(n)+uint64(trial)), sim.TrialConfig{
		Backend: sim.BackendCounts, Batch: cfg.Batch, MaxInteractions: clockSpanBudget * uint64(n)}, gamma)
	res := eng.Run()
	return res, meter.MaxBulk(), meter.MaxFull()
}

// spanEngine builds inst's engine from tc with a phase-span probe attached
// that fires once per parallel-time unit, reading phases through the
// registry's packed-word view (the low byte). gamma ≤ 0 marks a clockless
// protocol: no probe, nil meter.
func spanEngine(inst protocols.Instance, src *rng.Source, tc sim.TrialConfig, gamma int) (sim.Engine, *phaseclock.SpanMeter) {
	eng, err := inst.TrialEngine(src, tc)
	if err != nil {
		panic(err)
	}
	if gamma <= 0 {
		return eng, nil
	}
	meter := phaseclock.NewSpanMeter(gamma)
	probe := func(step uint64, v protocols.Census) {
		meter.Begin()
		if err := inst.VisitWords(v, func(word uint32, count int64) {
			meter.Add(uint8(word&0xff), count)
		}); err != nil {
			panic(err)
		}
		meter.End()
	}
	if err := inst.AddProbe(eng, probe, uint64(inst.N())); err != nil {
		panic(err)
	}
	return eng, meter
}
