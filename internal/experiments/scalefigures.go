package experiments

import (
	"fmt"
	"path/filepath"

	"popelect/internal/core"
	"popelect/internal/protocols/gs18"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// ScaleFigures records census trajectories in the paper's asymptotic
// regime: leader count and occupied distinct states over interactions, for
// GS18 and GSU19 on the counts backend — the dynamics that PR 1's
// final-snapshot Results could not show. This is the probe pipeline's
// headline use: pass `-sizes 100000000` to cmd/paperbench and the counts
// engine produces a full leader-count trajectory at n = 10⁸ in seconds,
// where the dense per-agent runner would need hours.
//
// With cfg.SeriesDir set, each trajectory is written as a CSV
// (step,leaders,occupied_states); the table summarizes either way.
func ScaleFigures(cfg Config) []*Table {
	n := maxSize(cfg)
	every := cfg.ProbeInterval
	if every == 0 {
		every = uint64(n) // one sample per parallel-time unit
	}
	t := &Table{
		ID:    "scalefigures",
		Title: "Census trajectories at large n (counts backend)",
		Columns: []string{"n", "alg", "converged", "par.time", "points",
			"final leaders", "peak occupied states", "series"},
	}
	scaleFigRow(t, cfg, "gs18", gs18.MustNew(gs18Params(cfg, n)), every)
	scaleFigRow(t, cfg, "gsu19", core.MustNew(coreParams(cfg, n)).Words(), every)
	t.AddNote("probe cadence: every %d interactions (one census sample per %.2f parallel-time units)",
		every, float64(every)/float64(n))
	if cfg.SeriesDir == "" {
		t.AddNote("set a series directory (cmd/paperbench -series-dir) to export the trajectories as CSV")
	}
	return []*Table{t}
}

// scaleFigRow runs one protocol to stabilization on the counts backend
// with a trajectory probe attached and appends its summary row.
func scaleFigRow(t *Table, cfg Config, alg string, pr sim.Protocol, every uint64) {
	n := pr.N()
	eng, err := sim.NewTrialEngine(pr, trialSource(cfg, 0),
		sim.TrialConfig{Backend: sim.BackendCounts, Batch: cfg.Batch, EngineWorkers: cfg.EngineWorkers})
	if err != nil {
		t.AddRow(d(n), alg, "config error: "+err.Error(), "—", "—", "—", "—", "—")
		return
	}
	col := stats.NewCollector(0, "leaders", "occupied_states")
	peakOccupied := 0
	record := func(step uint64, v sim.CensusView) {
		occ := v.Occupied()
		if occ > peakOccupied {
			peakOccupied = occ
		}
		col.Add(step, float64(v.Leaders()), float64(occ))
	}
	// Initial configuration as the trajectory origin, then one sample per
	// probe interval, then the stabilization point via the final fire.
	record(0, censusOf(eng))
	if err := sim.AddProbe(eng, record, every); err != nil {
		panic(err)
	}
	res := eng.Run()

	series := "(in memory only)"
	if cfg.SeriesDir != "" {
		path := filepath.Join(cfg.SeriesDir, fmt.Sprintf("scalefigures_%s_n%d.csv", alg, n))
		if err := stats.WriteSeriesCSVFile(path, col.Series...); err != nil {
			series = "write failed: " + err.Error()
		} else {
			series = path
		}
	}
	t.AddRow(d(n), alg, fmt.Sprintf("%t", res.Converged), f1(res.ParallelTime()),
		d(col.Series[0].Len()), d(res.Leaders), d(peakOccupied), series)
}
