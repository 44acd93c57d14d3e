package experiments

import (
	"math"

	"popelect/internal/core"
	"popelect/internal/epidemic"
	"popelect/internal/phaseclock"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// Theorem32 validates the phase-clock guarantees in isolation: with a junta
// of size n^0.7, rounds stay synchronized (all agents' completed-round
// counters within one of each other) and each round costs Θ(n log n)
// interactions. Round counters are read from the census view between
// sampling windows. The standalone clock has no finite state-space
// enumeration, so a counts-backend request degrades to auto (which picks
// dense for it).
func Theorem32(cfg Config) []*Table {
	t := &Table{
		ID:    "thm32",
		Title: "Phase clock (derived Γ(n), junta n^0.7): synchrony and round length",
		Columns: []string{"n", "Γ", "junta", "rounds run", "worst counter spread",
			"round len / (n ln n)"},
	}
	for _, n := range cfg.Sizes {
		juntaSize := int(math.Pow(float64(n), 0.7))
		gamma := gammaFor(cfg, n)
		c, err := phaseclock.NewStandalone(n, gamma, juntaSize)
		if err != nil {
			continue
		}
		eng := mustEngine(sim.NewTrialEngine(
			c, rng.New(cfg.Seed+5), sim.TrialConfig{Backend: sim.BackendAuto, Batch: cfg.Batch}))
		nln := float64(n) * math.Log(float64(n))
		total := uint64(30 * nln)
		sample := uint64(n)
		worst := 0
		minRounds := 0
		for done := uint64(0); done < total; done += sample {
			eng.RunSteps(sample)
			minR, maxR := math.MaxInt32, 0
			censusOf(eng).VisitStates(func(s uint32, count int64) {
				rr := c.Rounds(s)
				if rr < minR {
					minR = rr
				}
				if rr > maxR {
					maxR = rr
				}
			})
			if d := maxR - minR; d > worst {
				worst = d
			}
			minRounds = minR
		}
		perRound := math.NaN()
		if minRounds > 0 {
			perRound = float64(total) / float64(minRounds) / nln
		}
		t.AddRow(d(n), d(gamma), d(juntaSize), d(minRounds), d(worst), f2(perRound))
	}
	t.AddNote("Theorem 3.2: passes through 0 form equivalence classes (spread ≤ 1) and rounds cost Θ(n log n)")
	t.AddNote("Γ is derived per size (phaseclock.DefaultGamma: next even ≥ 2·log₂ n, floor 36); override with -gamma")
	return []*Table{t}
}

// Theorem82 is the headline scaling experiment: the core protocol's
// expected parallel time across n, normalized by the paper's bound
// log n · log log n (and, for contrast, by log² n and by n).
func Theorem82(cfg Config) []*Table {
	t := &Table{
		ID:    "thm82",
		Title: "Main result: expected parallel time of the paper's protocol",
		Columns: []string{"n", "trials", "par.time mean±95%", "p90", "max",
			"t/(ln·lnln)", "t/ln²n", "t/n", "leaders=1"},
	}
	var ns, means []float64
	for _, n := range cfg.Sizes {
		pr := core.MustNew(coreParams(cfg, n))
		rs := mustRun(cachedTrials(cfg, "thm82", "gsu19", n, func(int) sim.Protocol { return pr.Words() },
			cfg.trialBatch(cfg.Seed+6+uint64(n))))
		ok := 0
		for _, res := range rs {
			if res.Converged && res.Leaders == 1 {
				ok++
			}
		}
		times := sim.ParallelTimes(rs)
		mean, hw := stats.MeanCI(times, 1.96)
		ln := math.Log(float64(n))
		lnln := math.Log(ln)
		t.AddRow(d(n), d(len(rs)), f0(mean)+"±"+f0(hw), f0(stats.Quantile(times, 0.9)),
			f0(stats.Max(times)), f1(mean/(ln*lnln)), f1(mean/(ln*ln)),
			f3(mean/float64(n)), d(ok)+"/"+d(len(rs)))
		ns = append(ns, ln)
		means = append(means, mean)
	}
	if fit := stats.LinearFit(logs(ns), logs(means)); !math.IsNaN(fit.Slope) {
		t.AddNote("power-law fit: parallel time ~ (ln n)^%.2f (R²=%.3f); the paper's bound is exponent 1 + o(1), the log²n protocols have exponent 2", fit.Slope, fit.R2)
	}
	t.AddNote("every converged run elected exactly one leader (Las Vegas, Theorem 8.2)")
	return []*Table{t}
}

func logs(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Log(x)
	}
	return out
}

// Epidemic measures the one-way epidemic substrate: completion interactions
// over n ln n stay ≈ 2 across n — the building block of every broadcast in
// the protocol.
func Epidemic(cfg Config) []*Table {
	t := &Table{
		ID:      "epidemic",
		Title:   "One-way epidemic completion",
		Columns: []string{"n", "interactions mean", "interactions/(n ln n)"},
	}
	for _, n := range cfg.Sizes {
		p, err := epidemic.New(n, 1)
		if err != nil {
			continue
		}
		rs := mustRun(cachedTrials(cfg, "epidemic", "epidemic", n, func(int) sim.Protocol { return p },
			cfg.trialBatch(cfg.Seed+7)))
		if !sim.AllConverged(rs) {
			continue
		}
		mean := stats.Mean(sim.Interactions(rs))
		t.AddRow(d(n), f0(mean), f2(mean/(float64(n)*math.Log(float64(n)))))
	}
	t.AddNote("theory: ≈ 2·n·ln n interactions (logistic growth + coupon-collector tail)")
	return []*Table{t}
}

// Ablation compares the full protocol against its two design ablations —
// NoFastElim (skip the biased-coin epoch) and NoDrag (no inhibitor-driven
// cleanup, GS18-style) — quantifying what each mechanism buys.
func Ablation(cfg Config) []*Table {
	t := &Table{
		ID:    "ablation",
		Title: "Design ablations of the paper's protocol",
		Columns: []string{"variant", "n", "par.time mean±95%", "p90", "max",
			"vs full ×"},
	}
	// NoDrag degenerates to a Θ(n)-parallel-time tail (that is the point
	// of the ablation); cap its size so the experiment terminates in
	// reasonable wall time and report the cap.
	const noDragCap = 1 << 12
	variants := []struct {
		name   string
		maxN   int
		mutate func(*core.Params)
	}{
		{"full protocol", math.MaxInt, func(*core.Params) {}},
		{"no fast elimination", math.MaxInt, func(p *core.Params) { p.NoFastElim = true }},
		{"no drag counter", noDragCap, func(p *core.Params) { p.NoDrag = true }},
	}
	for _, n := range cfg.Sizes {
		baseline := math.NaN()
		for _, v := range variants {
			if n > v.maxN {
				t.AddRow(v.name, d(n), "— (slow-backup tail; capped)", "—", "—", "—")
				continue
			}
			params := coreParams(cfg, n)
			v.mutate(&params)
			pr := core.MustNew(params)
			rs := mustRun(cachedTrials(cfg, "ablation", "gsu19/"+v.name, n, func(int) sim.Protocol { return pr.Words() },
				cfg.trialBatch(cfg.Seed+8+uint64(n))))
			if !sim.AllConverged(rs) {
				t.AddRow(v.name, d(n), "timeout in "+d(len(rs)-sim.ConvergedCount(rs))+" trials", "—", "—", "—")
				continue
			}
			times := sim.ParallelTimes(rs)
			mean, hw := stats.MeanCI(times, 1.96)
			if v.name == "full protocol" {
				baseline = mean
			}
			rel := "1.00"
			if !math.IsNaN(baseline) && baseline > 0 {
				rel = f2(mean / baseline)
			}
			t.AddRow(v.name, d(n), f0(mean)+"±"+f0(hw), f0(stats.Quantile(times, 0.9)),
				f0(stats.Max(times)), rel)
		}
	}
	t.AddNote("NoFastElim enters the final epoch with ≈ n/2 actives (more bias-1/4 rounds); NoDrag leaves passive cleanup to the slow backup's direct duels (heavy tail — the effect the drag counter was invented to remove, §7)")
	return []*Table{t}
}
