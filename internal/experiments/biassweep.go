package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// biasPolicies is the accuracy/speed dial swept by BiasSweep: the adaptive
// controller at several drift bounds ε bracketing the default, plus the
// fixed batch lengths the backend shipped with (n/8 was the pre-adaptive
// default, n/2 is the throughput-maximal regime).
func biasPolicies(n int) []struct {
	label  string
	policy sim.BatchPolicy
} {
	return []struct {
		label  string
		policy sim.BatchPolicy
	}{
		{"adaptive ε=0.10", sim.BatchPolicy{Mode: sim.BatchAdaptive, Eps: 0.10}},
		{fmt.Sprintf("adaptive ε=%.2g (default)", sim.DefaultBatchEps),
			sim.BatchPolicy{Mode: sim.BatchAdaptive, Eps: sim.DefaultBatchEps}},
		{"adaptive ε=0.02", sim.BatchPolicy{Mode: sim.BatchAdaptive, Eps: 0.02}},
		{"fixed n/8", sim.BatchPolicy{Mode: sim.BatchFixed, Len: uint64(n) / 8}},
		{"fixed n/2", sim.BatchPolicy{Mode: sim.BatchFixed, Len: uint64(n) / 2}},
	}
}

// BiasSweep measures what each counts-backend batch policy costs in
// fidelity and buys in speed. Against a dense-backend ground truth at the
// largest configured population size it reports, per policy, the
// stabilization-time mean bias and the Kolmogorov–Smirnov distance between
// the two stabilization-time distributions (GS18, the protocol the batch
// bias was characterized on). At full scale (largest size ≥ 2¹⁹) it also
// re-measures raw counts throughput at n = 10⁸ per policy — the other side
// of the dial. The intended full-scale invocation is
//
//	paperbench -exp biassweep -sizes 1000000 -trials 30
//
// (the dense ground truth dominates the runtime: ~30 s per trial at
// n = 10⁶ on one core). With cfg.SeriesDir set, both tables are also
// written as CSV.
func BiasSweep(cfg Config) []*Table {
	n := maxSize(cfg)
	pr := gs18.MustNew(gs18Params(cfg, n))
	factory := func(int) sim.Protocol { return pr }

	bias := &Table{
		ID:    "biassweep",
		Title: fmt.Sprintf("counts batch-policy bias vs dense ground truth (GS18, n=%d)", n),
		Columns: []string{"policy", "trials", "par.time mean", "bias vs dense",
			"KS distance", "KS crit (α=0.05)", "converged"},
	}

	// The sweep pins its own backend and policies and runs unperturbed.
	pinned := func(seed uint64, b sim.Backend, p sim.BatchPolicy) sim.TrialConfig {
		tc := cfg.trialBatch(seed)
		tc.Backend, tc.Batch, tc.Perturb = b, p, sim.Perturbation{}
		return tc
	}
	denseRes := mustRun(cachedTrials(cfg, "biassweep", "gs18", n, factory,
		pinned(cfg.Seed+41, sim.BackendDense, sim.BatchPolicy{})))
	denseTimes := sim.ParallelTimes(denseRes)
	denseMean, denseHW := stats.MeanCI(denseTimes, 1.96)
	bias.AddRow("dense (ground truth)", d(len(denseRes)),
		fmt.Sprintf("%.0f±%.0f", denseMean, denseHW), "—", "—", "—",
		fmt.Sprintf("%d/%d", sim.ConvergedCount(denseRes), len(denseRes)))

	// The dense ground truth dominates the runtime, so the counts side
	// runs the same trial count; both means carry comparable noise and the
	// dense row's CI calibrates how much of each "bias" is statistical.
	var csvRows [][]string
	csvRows = append(csvRows, []string{"dense", "", d(len(denseRes)),
		f2(denseMean), f2(denseHW), "", ""})
	for _, p := range biasPolicies(n) {
		rs := mustRun(cachedTrials(cfg, "biassweep", "gs18", n, factory,
			pinned(cfg.Seed+43, sim.BackendCounts, p.policy)))
		times := sim.ParallelTimes(rs)
		mean := stats.Mean(times)
		ks := stats.KolmogorovSmirnov(denseTimes, times)
		crit := stats.KSCritical(len(denseTimes), len(times), 0.05)
		bias.AddRow(p.label, d(len(rs)), f0(mean),
			fmt.Sprintf("%+.1f%%", 100*(mean/denseMean-1)),
			f3(ks), f3(crit),
			fmt.Sprintf("%d/%d", sim.ConvergedCount(rs), len(rs)))
		csvRows = append(csvRows, []string{p.label, fmt.Sprintf("%g", p.policy.Eps),
			d(len(rs)), f2(mean), "", f3(ks), fmt.Sprintf("%+.4f", mean/denseMean-1)})
	}
	bias.AddNote("bias = counts stabilization-time mean over the dense mean − 1; dense mean carries a ±95%% CI")
	bias.AddNote("adaptive policies bound per-batch census drift (sim.BatchPolicy); ε=0 means the exact dense law")

	tables := []*Table{bias}
	if cfg.SeriesDir != "" {
		path := filepath.Join(cfg.SeriesDir, fmt.Sprintf("biassweep_bias_n%d.csv", n))
		if err := stats.WriteTableCSVFile(path,
			[]string{"policy", "eps", "trials", "partime_mean", "mean_ci95", "ks", "rel_bias"},
			csvRows); err != nil {
			bias.AddNote("CSV write failed: %v", err)
		} else {
			bias.AddNote("CSV written to %s", path)
		}
	}

	// Throughput leg: only meaningful in the batched regime, and expensive
	// enough (a warm-up plus a 2·10⁹-interaction slab at n = 10⁸ per
	// policy) that it is gated on a full-scale invocation.
	if n >= 1<<19 {
		tables = append(tables, biasSweepThroughput(cfg))
	} else {
		bias.AddNote("throughput leg skipped (largest size %d < 2¹⁹); run with -sizes 1000000 to include it", n)
	}
	return tables
}

// biasSweepThroughput measures raw counts-backend throughput per batch
// policy: GS18 at n = 10⁸, a fixed 20-parallel-time-unit RunSteps slab per
// policy (2·10⁹ interactions) so slow policies cost bounded wall time and
// every policy is charged for the same simulated work.
func biasSweepThroughput(cfg Config) *Table {
	const n = 100_000_000
	const slab = 20 * uint64(n)
	t := &Table{
		ID:      "biassweep-throughput",
		Title:   fmt.Sprintf("counts batch-policy throughput (GS18, n=%d, %d-interaction slab)", n, slab),
		Columns: []string{"policy", "interactions", "wall", "Minter/s"},
	}
	pr := gs18.MustNew(gs18Params(cfg, n))
	var csvRows [][]string
	for _, p := range biasPolicies(n) {
		eng, err := sim.NewEngine(pr, rng.NewStream(cfg.Seed+47, 0), sim.BackendCounts)
		if err != nil {
			panic(err)
		}
		eng.(*sim.CountsEngine).SetBatchPolicy(p.policy)
		eng.RunSteps(10 * uint64(n)) // warm-up past initialization, untimed
		start := time.Now()
		eng.RunSteps(slab)
		elapsed := time.Since(start)
		minters := float64(slab) / elapsed.Seconds() / 1e6
		t.AddRow(p.label, fmt.Sprintf("%.3g", float64(slab)),
			elapsed.Round(time.Millisecond).String(), f0(minters))
		csvRows = append(csvRows, []string{p.label, fmt.Sprintf("%g", p.policy.Eps),
			fmt.Sprintf("%.3g", float64(slab)), f2(elapsed.Seconds()), f0(minters)})
	}
	if cfg.SeriesDir != "" {
		path := filepath.Join(cfg.SeriesDir, fmt.Sprintf("biassweep_throughput_n%d.csv", n))
		if err := stats.WriteTableCSVFile(path,
			[]string{"policy", "eps", "interactions", "wall_s", "minter_per_s"},
			csvRows); err != nil {
			t.AddNote("CSV write failed: %v", err)
		} else {
			t.AddNote("CSV written to %s", path)
		}
	}
	return t
}
