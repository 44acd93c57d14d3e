package experiments

import (
	"math"

	"popelect/internal/core"
	"popelect/internal/junta"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// Lemma41 measures the initialisation epoch: the number of agents still
// uninitiated (role 0 or X) after c·n·ln n interactions, for growing c —
// Lemma 4.1 predicts O(n/log n) after O(n log n) interactions. Checkpoints
// are read from the engine's on-demand census view, so the experiment runs
// on either backend.
func Lemma41(cfg Config) []*Table {
	t := &Table{
		ID:    "lemma41",
		Title: "Uninitiated agents after c·n·ln n interactions (mean over trials)",
		Columns: []string{"n", "c=2", "c=4", "c=8", "at convergence",
			"n/ln n", "uninit(c=8)·ln n/n"},
	}
	checkpoints := []float64{2, 4, 8}
	for _, n := range cfg.Sizes {
		pr := core.MustNew(coreParams(cfg, n))
		nln := float64(n) * math.Log(float64(n))
		sums := make([]float64, len(checkpoints))
		final := 0.0
		trials := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			eng := mustEngine(sim.NewTrialEngine[core.State, *core.Protocol](
				pr, rng.NewStream(cfg.Seed+1, uint64(trial)), cfg.engineConfig()))
			prev := uint64(0)
			for ci, c := range checkpoints {
				target := uint64(c * nln)
				eng.RunSteps(target - prev)
				prev = target
				sums[ci] += float64(pr.UninitiatedCountOf(censusOf[core.State](eng).VisitStates))
			}
			res := eng.Run()
			if !res.Converged {
				continue
			}
			final += float64(pr.UninitiatedCountOf(censusOf[core.State](eng).VisitStates))
			trials++
		}
		if trials == 0 {
			continue
		}
		for ci := range sums {
			sums[ci] /= float64(cfg.Trials)
		}
		final /= float64(trials)
		ln := math.Log(float64(n))
		t.AddRow(d(n), f1(sums[0]), f1(sums[1]), f1(sums[2]), f1(final),
			f1(float64(n)/ln), f3(sums[2]*ln/float64(n)))
	}
	t.AddNote("Lemma 4.1: after O(n log n) interactions only O(n/log n) agents are uninitiated — the last column should stay bounded by a constant")
	return []*Table{t}
}

// Lemma53 measures the junta size C_Φ against the [n^0.45, n^0.77] window,
// read per trial through a final-snapshot census probe.
func Lemma53(cfg Config) []*Table {
	t := &Table{
		ID:      "lemma53",
		Title:   "Junta size C_Φ vs Lemma 5.3 window",
		Columns: []string{"n", "Φ", "junta mean", "junta min", "junta max", "n^0.45", "n^0.77", "inside window"},
	}
	for _, n := range cfg.Sizes {
		pr := core.MustNew(coreParams(cfg, n))
		juntaAt := make([]float64, cfg.Trials)
		rs := mustRun(sim.RunTrialsProbed[core.State, *core.Protocol](
			func(int) *core.Protocol { return pr },
			cfg.trialBatch(cfg.Seed+2),
			sim.TrialProbe[core.State]{Make: func(trial int) sim.Probe[core.State] {
				return func(step uint64, v sim.CensusView[core.State]) {
					juntaAt[trial] = float64(pr.JuntaSizeOf(v.VisitStates))
				}
			}},
		))
		var sizes []float64
		for trial, res := range rs {
			if res.Converged {
				sizes = append(sizes, juntaAt[trial])
			}
		}
		if len(sizes) == 0 {
			continue
		}
		lo, hi := junta.JuntaSizeBounds(n)
		inside := 0
		for _, s := range sizes {
			if s >= lo && s <= hi {
				inside++
			}
		}
		t.AddRow(d(n), d(pr.Params().Phi), f1(stats.Mean(sizes)), f0(stats.Min(sizes)),
			f0(stats.Max(sizes)), f0(lo), f0(hi), d(inside)+"/"+d(len(sizes)))
	}
	t.AddNote("the bounds are asymptotic (wvhp); at small n the constants in Lemma 5.3's proof dominate")
	return []*Table{t}
}

// Lemma71 measures the inhibitor drag census D_ℓ against n_I·4^{−ℓ}, read
// per trial through a final-snapshot census probe.
func Lemma71(cfg Config) []*Table {
	n := maxSize(cfg)
	pr := core.MustNew(coreParams(cfg, n))
	psi := pr.Params().Psi

	censusAt := make([][]int, cfg.Trials)
	rs := mustRun(sim.RunTrialsProbed[core.State, *core.Protocol](
		func(int) *core.Protocol { return pr },
		cfg.trialBatch(cfg.Seed+3),
		sim.TrialProbe[core.State]{Make: func(trial int) sim.Probe[core.State] {
			return func(step uint64, v sim.CensusView[core.State]) {
				censusAt[trial] = pr.InhibDragCensusOf(v.VisitStates)
			}
		}},
	))
	sums := make([]float64, psi+1)
	nI := 0.0
	trials := 0
	for trial, res := range rs {
		if !res.Converged || censusAt[trial] == nil {
			continue
		}
		for l, c := range censusAt[trial] {
			sums[l] += float64(c)
			nI += float64(c)
		}
		trials++
	}
	t := &Table{
		ID:      "lemma71",
		Title:   "Inhibitor drag census D_ℓ (n = " + d(n) + ")",
		Columns: []string{"ℓ", "D_ℓ measured (mean)", "D_ℓ predicted", "ratio D_ℓ/D_ℓ+1"},
	}
	if trials > 0 {
		nI /= float64(trials)
		for l := range sums {
			sums[l] /= float64(trials)
		}
		for l := 0; l <= psi; l++ {
			// Geometric with success probability 1/4: exactly ℓ
			// successes then a failure: (1/4)^ℓ · 3/4, except the
			// capped top level which absorbs the tail.
			pred := nI * math.Pow(0.25, float64(l)) * 0.75
			if l == psi {
				pred = nI * math.Pow(0.25, float64(l))
			}
			ratio := "—"
			if l < psi && sums[l+1] > 0 {
				ratio = f2(sums[l] / sums[l+1])
			}
			t.AddRow(d(l), f1(sums[l]), f1(pred), ratio)
		}
	}
	t.AddNote("Lemma 7.1: D_ℓ = n·4^{−ℓ}(1±o(1)) — ratios should be ≈ 4")
	return []*Table{t}
}

// Lemma73 measures the final elimination: the number of clocked rounds the
// protocol spends reducing the O(log n) active candidates to a single one —
// O(log log n) in expectation.
func Lemma73(cfg Config) []*Table {
	t := &Table{
		ID:    "lemma73",
		Title: "Final elimination rounds (entry → single active)",
		Columns: []string{"n", "actives at entry (mean)", "final rounds (mean)",
			"final rounds (p90)", "log₄(actives)", "ln ln n"},
	}
	for _, n := range cfg.Sizes {
		pr := core.MustNew(coreParams(cfg, n))
		var entries, rounds []float64
		for trial := 0; trial < cfg.Trials; trial++ {
			stages, _, res := runWithStageTracking(pr, cfg.Seed+4+uint64(trial)*31, cfg)
			if !res.Converged {
				continue
			}
			entry, ok := stages[0]
			if !ok {
				continue
			}
			// Estimate the round length from the spacing of the
			// fast-elimination stages.
			rl := roundLength(stages, pr.Params().InitialCnt())
			if rl <= 0 {
				continue
			}
			entries = append(entries, float64(entry.actives))
			rounds = append(rounds, float64(res.Interactions-entry.step)/rl)
		}
		if len(rounds) == 0 {
			continue
		}
		meanEntry := stats.Mean(entries)
		t.AddRow(d(n), f1(meanEntry), f1(stats.Mean(rounds)), f1(stats.Quantile(rounds, 0.9)),
			f1(math.Log(meanEntry)/math.Log(4)), f2(math.Log(math.Log(float64(n)))))
	}
	t.AddNote("Lemma 7.3: O(log log n) rounds in expectation; each round cuts actives ≈ ×1/4 (bias-1/4 coin), plus the drag-tick wait for the last passive to withdraw")
	return []*Table{t}
}

// roundLength estimates interactions per clocked round from the recorded
// stage-entry times.
func roundLength(stages map[int]stageRecord, initialCnt int) float64 {
	var first, last uint64
	var firstStage, lastStage int
	have := false
	for cnt := initialCnt - 1; cnt >= 0; cnt-- {
		rec, ok := stages[cnt]
		if !ok {
			continue
		}
		if !have {
			first, firstStage = rec.step, cnt
			have = true
		}
		last, lastStage = rec.step, cnt
	}
	if !have || firstStage == lastStage {
		return -1
	}
	return float64(last-first) / float64(firstStage-lastStage)
}
