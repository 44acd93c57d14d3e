package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"popelect/internal/protocols/gs18"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// parScaleWorkers is the shard-count grid the parscale experiment sweeps.
var parScaleWorkers = []int{1, 2, 4, 8}

// ParScale measures the counts backend's sharded-batch throughput as a
// workers × n grid: for each population size, GS18 advances a fixed
// interaction slab under the batch policy in effect (pass -batch adaptive
// for the faithful regime) at every worker count, repeated cfg.Reps times
// (-reps; default 1), and the table reports mean ± sd Minteractions/s, the
// speedup over the serial path, and the effective worker count the engine
// actually used (the fan-out is clamped to occupied/2 and short batches
// run serially, so effective can sit below the requested column — a
// single-rep, request-labeled table misreads both). With cfg.SeriesDir
// set, the grid is also written as parscale.csv — the recorded
// bench-results/parscale.csv comes from this experiment.
//
// Sharding only engages above the parallel gate (batch length ≥ 2¹²,
// ≥ 16 occupied states; see sim.CountsEngine.Workers), so sizes below
// ~10⁶ mostly exercise the serial path regardless of the worker column.
// On a single-core host every worker count serializes onto one CPU and
// the speedup column reads ≤ 1× — the shard fan-out then only measures
// its own overhead; the ≥ 3× regime needs as many physical cores as
// shards.
func ParScale(cfg Config) []*Table {
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	t := &Table{
		ID:    "parscale",
		Title: "sharded-batch throughput vs worker count (counts backend, GS18)",
		Columns: []string{"n", "workers", "eff.workers", "slab interactions", "reps",
			"Minter/s mean±sd", "speedup vs w=1"},
	}
	var rows [][]string
	for _, n := range cfg.Sizes {
		// A slab long enough to amortize the warmup ramp but short enough
		// that the full grid stays interactive: 16 parallel-time units,
		// floored so small (smoke) sizes still measure something.
		slab := uint64(n) * 16
		if slab < 1<<22 {
			slab = 1 << 22
		}
		base := 0.0
		for _, w := range parScaleWorkers {
			eng, err := sim.NewTrialEngine[uint32, *gs18.Protocol](
				gs18.MustNew(gs18Params(cfg, n)), trialSource(cfg, w),
				sim.TrialConfig{Backend: sim.BackendCounts, Batch: cfg.Batch, EngineWorkers: w})
			if err != nil {
				t.AddRow(d(n), d(w), "—", "engine error: "+err.Error(), "—", "—", "—")
				continue
			}
			eng.RunSteps(slab / 8) // past the initial ramp
			mps := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				start := time.Now()
				eng.RunSteps(slab)
				mps = append(mps, float64(slab)/time.Since(start).Seconds()/1e6)
			}
			mean := stats.Mean(mps)
			sd := stats.Std(mps)
			effective := 1
			if wr, ok := eng.(sim.WorkerReporter); ok {
				effective = wr.EffectiveWorkers()
			}
			if w == 1 {
				base = mean
			}
			speedup := "—"
			if base > 0 {
				speedup = fmt.Sprintf("%.2f×", mean/base)
			}
			t.AddRow(d(n), d(w), d(effective), fmt.Sprintf("%d", slab), d(reps),
				fmt.Sprintf("%.1f±%.1f", mean, sd), speedup)
			rows = append(rows, []string{d(n), d(w), d(effective),
				fmt.Sprintf("%d", slab), d(reps), f1(mean), f2(sd)})
		}
	}
	t.AddNote("batch policy %s; throughput over fixed post-ramp slabs, no stabilization check; sd over %d rep(s)", cfg.Batch, reps)
	t.AddNote("eff.workers = widest fan-out actually used (clamped to occupied/2; short batches serialize)")
	t.AddNote("single-core hosts serialize all shards: expect ≤1× here, ≥3× needs one core per shard")
	if cfg.SeriesDir != "" {
		path := filepath.Join(cfg.SeriesDir, "parscale.csv")
		if err := stats.WriteTableCSVFile(path,
			[]string{"n", "workers", "eff_workers", "slab_interactions", "reps",
				"minter_per_s_mean", "minter_per_s_sd"}, rows); err != nil {
			t.AddNote("csv write failed: %v", err)
		} else {
			t.AddNote("grid written to %s", path)
		}
	}
	return []*Table{t}
}
