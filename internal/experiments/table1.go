package experiments

import (
	"fmt"
	"math"

	"popelect/internal/protocols"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// Table1 reproduces the paper's Table 1 ("Leader election via population
// protocols") by measurement: for each registered leader-election protocol
// and population size it reports the measured convergence time (mean
// parallel time with a 95% CI and the p90) and the number of distinct
// states agents actually used. The protocol set, its paper-quoted
// asymptotics and the Θ(n²)-interaction size caps all come from the
// protocol registry. The asymptotic claims of the original table translate
// into the shape columns:
//
//	t/ln n      — Θ(1) for nothing here; grows for all (sanity column)
//	t/ln² n     — ≈ constant for the Θ(log² n) protocols (GS18, lottery)
//	t/(ln·lnln) — ≈ constant for this paper's protocol
//	t/n         — ≈ constant for the slow Θ(n) backup
//
// Size-capped protocols (slow) are marked "—" beyond their cap.
func Table1(cfg Config) []*Table {
	t := &Table{
		ID:    "table1",
		Title: "Leader election via population protocols (measured)",
		Columns: []string{"protocol", "paper states", "paper time", "n",
			"par.time mean±95%", "p90", "states used", "t/ln²n", "t/(ln·lnln)", "t/n"},
	}

	// The paper's Table 1 runs weakest to strongest; the registry leads
	// with the paper's protocol, so render its election entries reversed.
	var entries []protocols.Entry
	for _, e := range protocols.All() {
		if e.Elects {
			entries = append(entries, e)
		}
	}
	for k := len(entries) - 1; k >= 0; k-- {
		e := entries[k]
		for _, n := range cfg.Sizes {
			if e.MaxN != 0 && n > e.MaxN {
				t.AddRow(e.Display, e.PaperStates, e.PaperTime, d(n), "—", "—", "—", "—", "—", "—")
				continue
			}
			rs, err := runTable1Cell(cfg, e, n)
			if err != nil {
				t.AddRow(e.Display, e.PaperStates, e.PaperTime, d(n),
					"config error: "+err.Error(), "—", "—", "—", "—", "—")
				continue
			}
			if !sim.AllConverged(rs) {
				t.AddRow(e.Display, e.PaperStates, e.PaperTime, d(n),
					fmt.Sprintf("only %d/%d converged", sim.ConvergedCount(rs), len(rs)),
					"—", "—", "—", "—", "—")
				continue
			}
			times := sim.ParallelTimes(rs)
			mean, hw := stats.MeanCI(times, 1.96)
			p90 := stats.Quantile(times, 0.9)
			distinct := 0
			for _, r := range rs {
				if r.DistinctStates > distinct {
					distinct = r.DistinctStates
				}
			}
			ln := math.Log(float64(n))
			lnln := math.Log(ln)
			t.AddRow(e.Display, e.PaperStates, e.PaperTime, d(n),
				fmt.Sprintf("%.0f±%.0f", mean, hw), f0(p90), d(distinct),
				f1(mean/(ln*ln)), f1(mean/(ln*lnln)), f3(mean/float64(n)))
		}
	}

	t.AddNote("protocol set, asymptotics and size caps from the protocol registry (internal/protocols)")
	t.AddNote("states used = distinct packed states observed over a whole run (max across trials); includes the Γ clock phases (derived per size: %s), so compare across protocols, not to the paper's asymptotic counts directly", gammaRange(cfg))
	t.AddNote("shape columns: the protocol's own column should stay ≈ constant as n grows")
	return []*Table{t}
}

// runTable1Cell runs one protocol × size measurement cell.
func runTable1Cell(cfg Config, e protocols.Entry, n int) ([]sim.Result, error) {
	inst, err := e.New(n, protocols.Overrides{Gamma: cfg.Gamma})
	if err != nil {
		return nil, err
	}
	tc := cfg.trialBatch(cfg.Seed + uint64(n))
	tc.TrackStates = true
	// A counts request degrades to auto for protocols without a
	// state-space enumeration (auto falls back to dense for them).
	if _, ok := inst.Protocol.(sim.Enumerable); tc.Backend == sim.BackendCounts && !ok {
		tc.Backend = sim.BackendAuto
	}
	return cachedCell(cfg, trialKey(cfg, "table1", e.Name, n, tc), func() ([]sim.Result, error) {
		return sim.RunTrials(func(int) sim.Protocol { return inst.Protocol }, tc)
	})
}
