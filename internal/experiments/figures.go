package experiments

import (
	"math"

	"popelect/internal/core"
	"popelect/internal/junta"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// Figure1 reproduces Figure 1 ("idealized scheme of coin sub-populations
// and their relation to biased coins"): for the largest configured n it
// runs the protocol to convergence and reports, per coin level ℓ, the
// measured cumulative population C_ℓ, the idealized square-decay
// prediction, the Lemma 5.1/5.2 envelope, and the realized coin bias
// q_ℓ = C_ℓ/n. The coin census is read through a final-snapshot probe, so
// the experiment runs on either backend.
func Figure1(cfg Config) []*Table {
	n := maxSize(cfg)
	pr := core.MustNew(coreParams(cfg, n))
	phi := pr.Params().Phi

	cums := make([][]int, cfg.Trials)
	rs := mustRun(sim.RunTrialsProbed(
		func(int) sim.Protocol { return pr.Words() },
		cfg.trialBatch(cfg.Seed),
		sim.TrialProbe{Make: func(trial int) sim.Probe {
			return func(step uint64, v sim.CensusView) {
				cums[trial] = pr.CumulativeCoinCensusOf(v.VisitStates)
			}
		}},
	))

	perLevel := make([][]float64, phi+1)
	juntas := make([]float64, 0, cfg.Trials)
	for trial, res := range rs {
		if !res.Converged || cums[trial] == nil {
			continue
		}
		for l := 0; l <= phi; l++ {
			perLevel[l] = append(perLevel[l], float64(cums[trial][l]))
		}
		juntas = append(juntas, float64(cums[trial][phi]))
	}

	t := &Table{
		ID:    "fig1",
		Title: "Coin sub-populations and their biased coins (n = " + d(n) + ")",
		Columns: []string{"level ℓ", "C_ℓ measured (mean)", "C_ℓ idealized",
			"envelope lo", "envelope hi", "bias q_ℓ = C_ℓ/n", "ideal bias"},
	}
	c0 := stats.Mean(perLevel[0])
	pred := junta.PredictLevels(n, c0, phi)
	lo, hi := junta.LevelBounds(n, c0, phi)
	for l := 0; l <= phi; l++ {
		m := stats.Mean(perLevel[l])
		t.AddRow(d(l), f0(m), f0(pred[l]), f0(lo[l]), f0(hi[l]),
			f3(m/float64(n)), f3(pred[l]/float64(n)))
	}
	jlo, jhi := junta.JuntaSizeBounds(n)
	t.AddNote("junta C_Φ mean %.0f; Lemma 5.3 window [n^0.45, n^0.77] = [%.0f, %.0f]",
		stats.Mean(juntas), jlo, jhi)
	t.AddNote("the paper's Figure 1 annotates level ℓ with bias ≈ q_ℓ; the measured bias column realizes it")
	return []*Table{t}
}

// stageRecord captures the moment the first candidate enters a schedule
// stage: the census of active candidates at that instant.
type stageRecord struct {
	step    uint64
	actives int64
}

// stageTrack accumulates, through a census probe, the interaction at which
// the first candidate entered each schedule stage (and the active count at
// that moment), plus first-attainment times for every drag value ≥ 1.
// Detection happens at probe cadence, so recorded steps overshoot the true
// entry by at most one probe interval — negligible against the Θ(n log n)
// stage lengths the schedule produces.
type stageTrack struct {
	stages    map[int]stageRecord
	dragFirst map[int]uint64
	prevStage int
	maxDrag   int
}

// trackStages attaches the stage-tracking probe to eng.
func trackStages(pr *core.Protocol, eng sim.Engine, every uint64) *stageTrack {
	st := &stageTrack{
		stages:    make(map[int]stageRecord),
		dragFirst: make(map[int]uint64),
		prevStage: pr.Params().InitialCnt(),
	}
	probe := func(step uint64, v sim.CensusView) {
		if min := pr.MinLeaderCntOf(v.VisitStates); min >= 0 && min < st.prevStage {
			actives := v.Classes()[core.ClassActive]
			// Stages crossed since the last probe share the detection step.
			for s := st.prevStage - 1; s >= min; s-- {
				st.stages[s] = stageRecord{step: step, actives: actives}
			}
			st.prevStage = min
		}
		if d := pr.MaxLeaderDragOf(v.VisitStates); d > st.maxDrag {
			for w := st.maxDrag + 1; w <= d; w++ {
				st.dragFirst[w] = step
			}
			st.maxDrag = d
		}
	}
	if err := sim.AddProbe(eng, probe, every); err != nil {
		panic(err)
	}
	return st
}

// runWithStageTracking executes one run recording stage entries and drag
// first-attainment times through the probe pipeline.
func runWithStageTracking(pr *core.Protocol, seed uint64, cfg Config) (map[int]stageRecord, map[int]uint64, sim.Result) {
	eng := mustEngine(sim.NewTrialEngine(pr.Words(), rng.New(seed), cfg.engineConfig()))
	st := trackStages(pr, eng, probeEvery(cfg, pr.N()))
	res := eng.Run()
	return st.stages, st.dragFirst, res
}

// Figure2 reproduces Figure 2 ("idealized scheme of the fast elimination
// process"): the number of active candidates surviving each application of
// the scheduled biased coin, against the idealized multiply-by-q reduction.
func Figure2(cfg Config) []*Table {
	n := maxSize(cfg)
	pr := core.MustNew(coreParams(cfg, n))
	p := pr.Params()

	// Collect across trials: actives at entry into each stage.
	perStage := make(map[int][]float64)
	for trial := 0; trial < cfg.Trials; trial++ {
		stages, _, res := runWithStageTracking(pr, cfg.Seed+uint64(trial)*7919, cfg)
		if !res.Converged {
			continue
		}
		for stage, rec := range stages {
			perStage[stage] = append(perStage[stage], float64(rec.actives))
		}
	}

	t := &Table{
		ID:    "fig2",
		Title: "Fast elimination: active candidates per schedule stage (n = " + d(n) + ")",
		Columns: []string{"stage cnt", "coin level γ", "ideal bias q",
			"actives at entry (mean)", "reduction ×", "ideal ×"},
	}
	// Idealized biases from the coin recurrence with C_0 = n/4.
	pred := junta.PredictLevels(n, float64(n)/4, p.Phi)
	prev := math.NaN()
	for cnt := p.InitialCnt() - 1; cnt >= 0; cnt-- {
		rec, ok := perStage[cnt]
		if !ok {
			continue
		}
		mean := stats.Mean(rec)
		level := p.ScheduleLevel(cnt + 1) // the coin applied during the previous stage
		q := pred[level] / float64(n)
		reduction := "—"
		ideal := "—"
		if !math.IsNaN(prev) && mean > 0 {
			reduction = f3(mean / prev)
			ideal = f3(q)
		}
		t.AddRow(d(cnt), d(p.ScheduleLevel(cnt)), f3(pred[p.ScheduleLevel(cnt)]/float64(n)),
			f1(mean), reduction, ideal)
		prev = mean
	}
	t.AddNote("'actives at entry' into stage cnt = survivors of the coin used during stage cnt+1")
	t.AddNote("reductions bottom out at the Lemma 6.1 floor ≈ c·log n/q, as in the paper (no heads → void round)")
	t.AddNote("stage entries detected by census probes every %d interactions", probeEvery(cfg, n))
	return []*Table{t}
}

// Figure3 reproduces Figure 3 (the slowing-down drag counter): the measured
// interaction times T_ℓ between the first occurrences of consecutive drag
// values, against the Lemma 7.2 law T_ℓ = Θ(4^ℓ · n log n).
func Figure3(cfg Config) []*Table {
	n := maxSize(cfg)
	pr := core.MustNew(coreParams(cfg, n))

	ticks := make(map[int][]float64) // drag value -> T_{d-1} samples
	for trial := 0; trial < cfg.Trials; trial++ {
		// Run to convergence, then keep going: the surviving active
		// candidate continues flipping level-0 coins and ticking the
		// drag counter, so T_ℓ is measurable well past drag 1.
		eng := mustEngine(sim.NewTrialEngine(
			pr.Words(), rng.New(cfg.Seed+uint64(trial)*104729), cfg.engineConfig()))
		st := trackStages(pr, eng, probeEvery(cfg, n))
		res := eng.Run()
		if !res.Converged {
			continue
		}
		// Extra budget past convergence: enough for the next two drag
		// ticks at the current level (T_ℓ ≈ 4^ℓ n ln n each), capped.
		// Probes keep firing during RunSteps, so st keeps filling in.
		nln := float64(n) * math.Log(float64(n))
		psi := pr.Params().Psi
		for st.maxDrag < psi-1 {
			budget := uint64(6 * math.Pow(4, float64(st.maxDrag+1)) * nln)
			if budget > uint64(150*nln) {
				budget = uint64(150 * nln)
			}
			before := st.maxDrag
			eng.RunSteps(budget)
			if st.maxDrag == before {
				break // the next tick is out of reach at this scale
			}
		}
		// T_ℓ = first(ℓ+1) − first(ℓ); drag 0 exists from candidate
		// creation, so T_0 runs from the final-epoch start, approximated
		// by first(1)'s predecessor when unavailable.
		for dl := 1; ; dl++ {
			cur, ok := st.dragFirst[dl]
			if !ok {
				break
			}
			prev, ok := st.dragFirst[dl-1]
			if !ok {
				continue // T_0's start is candidate creation; skip
			}
			ticks[dl-1] = append(ticks[dl-1], float64(cur-prev))
		}
	}

	nlogn := float64(n) * math.Log(float64(n))
	t := &Table{
		ID:    "fig3",
		Title: "Drag counter tick times (n = " + d(n) + ")",
		Columns: []string{"ℓ", "samples", "T_ℓ mean (interactions)",
			"T_ℓ/(n ln n)", "T_ℓ/(4^ℓ n ln n)", "growth vs T_{ℓ-1}"},
	}
	prev := math.NaN()
	for dl := 1; ; dl++ {
		samples, ok := ticks[dl]
		if !ok || len(samples) == 0 {
			break
		}
		mean := stats.Mean(samples)
		growth := "—"
		if !math.IsNaN(prev) && prev > 0 {
			growth = f2(mean / prev)
		}
		t.AddRow(d(dl), d(len(samples)), f0(mean), f2(mean/nlogn),
			f3(mean/(math.Pow(4, float64(dl))*nlogn)), growth)
		prev = mean
	}
	t.AddNote("Lemma 7.2: T_ℓ = Θ(4^ℓ n log n) — the normalized column should be flat, growth ≈ 4")
	t.AddNote("runs stop at stabilization, so high drag values appear only in trials whose final duel lasted long enough")
	return []*Table{t}
}

func maxSize(cfg Config) int {
	m := 2
	for _, n := range cfg.Sizes {
		if n > m {
			m = n
		}
	}
	return m
}
