// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (plus the supporting lemma/theorem measurements). Each
// benchmark runs a reduced-scale version of the corresponding experiment in
// internal/experiments and reports the headline quantity as a custom
// metric; cmd/paperbench runs the full-scale versions.
//
// Run with:
//
//	go test -bench=. -benchmem
package popelect

import (
	"math"
	"testing"

	"popelect/internal/core"
	"popelect/internal/epidemic"
	"popelect/internal/experiments"
	"popelect/internal/phaseclock"
	"popelect/internal/protocols"
	"popelect/internal/protocols/gs18"
	"popelect/internal/protocols/lottery"
	"popelect/internal/protocols/slow"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

const benchN = 1 << 10

// benchElect runs one full election per iteration and reports the mean
// parallel time — the quantity in Table 1's time column.
func benchElect[S comparable, P sim.Protocol[S]](b *testing.B, pr P) {
	b.Helper()
	var times []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[S, P](pr, rng.New(uint64(i)+1))
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			b.Fatalf("iteration %d: %+v", i, res)
		}
		times = append(times, res.ParallelTime())
	}
	b.ReportMetric(stats.Mean(times), "parallel-time")
}

// --- Table 1: one benchmark per protocol row ---

func BenchmarkTable1Slow(b *testing.B) {
	p, _ := slow.New(benchN)
	benchElect[uint32](b, p)
}

func BenchmarkTable1Lottery(b *testing.B) {
	benchElect[uint32](b, lottery.MustNew(lottery.DefaultParams(benchN)))
}

func BenchmarkTable1GS18(b *testing.B) {
	benchElect[uint32](b, gs18.MustNew(gs18.DefaultParams(benchN)))
}

func BenchmarkTable1GSU19(b *testing.B) {
	benchElect[core.State](b, core.MustNew(core.DefaultParams(benchN)))
}

// --- Figure 1: coin level populations ---

func BenchmarkFig1Coins(b *testing.B) {
	pr := core.MustNew(core.DefaultParams(benchN))
	phi := pr.Params().Phi
	var junta []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(uint64(i)+1))
		if res := r.Run(); !res.Converged {
			b.Fatalf("%+v", res)
		}
		cum := pr.CumulativeCoinCensus(r.Population())
		junta = append(junta, float64(cum[phi]))
	}
	b.ReportMetric(stats.Mean(junta), "junta-size")
}

// --- Figure 2: fast elimination survivor counts ---

func BenchmarkFig2FastElim(b *testing.B) {
	pr := core.MustNew(core.DefaultParams(benchN))
	var atFinal []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(uint64(i)+1))
		entry := -1.0
		r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI core.State) {
			if entry < 0 && oldR.Role() == core.RoleL && newR.Role() == core.RoleL &&
				newR.Cnt() == 0 && oldR.Cnt() == 1 {
				entry = float64(r.Counts()[core.ClassActive])
			}
		})
		if res := r.Run(); !res.Converged {
			b.Fatalf("%+v", res)
		}
		if entry >= 0 {
			atFinal = append(atFinal, entry)
		}
	}
	if len(atFinal) > 0 {
		b.ReportMetric(stats.Mean(atFinal), "actives-at-final-epoch")
	}
}

// --- Figure 3: drag counter tick times ---

func BenchmarkFig3Drag(b *testing.B) {
	pr := core.MustNew(core.DefaultParams(benchN))
	nln := float64(benchN) * math.Log(float64(benchN))
	var t1 []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(uint64(i)+1))
		first := map[int]uint64{}
		r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI core.State) {
			if oldR.Role() == core.RoleL && newR.Role() == core.RoleL &&
				newR.LeaderDrag() > oldR.LeaderDrag() {
				d := int(newR.LeaderDrag())
				if _, ok := first[d]; !ok {
					first[d] = step
				}
			}
		})
		if res := r.Run(); !res.Converged {
			b.Fatalf("%+v", res)
		}
		// Observe the next tick past convergence if needed.
		if _, ok := first[2]; !ok {
			r.RunSteps(uint64(40 * nln))
		}
		if a, ok := first[1]; ok {
			if c, ok2 := first[2]; ok2 {
				t1 = append(t1, float64(c-a)/nln)
			}
		}
	}
	if len(t1) > 0 {
		b.ReportMetric(stats.Mean(t1), "T1/(n·ln·n)")
	}
}

// --- Lemma benchmarks ---

func BenchmarkLemma41Init(b *testing.B) {
	pr := core.MustNew(core.DefaultParams(benchN))
	nln := float64(benchN) * math.Log(float64(benchN))
	var uninit []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(uint64(i)+1))
		r.RunSteps(uint64(8 * nln))
		uninit = append(uninit, float64(pr.UninitiatedCount(r.Population())))
	}
	b.ReportMetric(stats.Mean(uninit), "uninitiated")
}

func BenchmarkLemma53Junta(b *testing.B) {
	BenchmarkFig1Coins(b)
}

func BenchmarkLemma71Drags(b *testing.B) {
	pr := core.MustNew(core.DefaultParams(benchN))
	var ratio []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(uint64(i)+1))
		if res := r.Run(); !res.Converged {
			b.Fatalf("%+v", res)
		}
		drags := pr.InhibDragCensus(r.Population())
		if len(drags) > 1 && drags[1] > 0 {
			ratio = append(ratio, float64(drags[0])/float64(drags[1]))
		}
	}
	if len(ratio) > 0 {
		b.ReportMetric(stats.Mean(ratio), "D0/D1")
	}
}

func BenchmarkLemma73FinalRounds(b *testing.B) {
	pr := core.MustNew(core.DefaultParams(benchN))
	nln := float64(benchN) * math.Log(float64(benchN))
	var rounds []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(uint64(i)+1))
		var entry uint64
		r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI core.State) {
			if entry == 0 && oldR.Role() == core.RoleL && newR.Role() == core.RoleL &&
				newR.Cnt() == 0 && oldR.Cnt() == 1 {
				entry = step
			}
		})
		res := r.Run()
		if !res.Converged {
			b.Fatalf("%+v", res)
		}
		if entry > 0 {
			// Rounds cost ≈ 7.5·n·ln n at the small-n Γ = 36 (Theorem 3.2
			// bench; benchN is far below the derived-Γ growth regime).
			rounds = append(rounds, float64(res.Interactions-entry)/(7.5*nln))
		}
	}
	if len(rounds) > 0 {
		b.ReportMetric(stats.Mean(rounds), "final-rounds")
	}
}

// --- Theorem 3.2: clock round length ---

func BenchmarkThm32Clock(b *testing.B) {
	junta := int(math.Pow(float64(benchN), 0.7))
	c, err := phaseclock.NewStandalone(benchN, phaseclock.DefaultGamma(benchN), junta)
	if err != nil {
		b.Fatal(err)
	}
	nln := float64(benchN) * math.Log(float64(benchN))
	var perRound []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[uint32, *phaseclock.Standalone](c, rng.New(uint64(i)+1))
		total := uint64(30 * nln)
		r.RunSteps(total)
		minRounds := math.MaxInt32
		for _, s := range r.Population() {
			if rr := c.Rounds(s); rr < minRounds {
				minRounds = rr
			}
		}
		if minRounds > 0 {
			perRound = append(perRound, float64(total)/float64(minRounds)/nln)
		}
	}
	if len(perRound) > 0 {
		b.ReportMetric(stats.Mean(perRound), "round/(n·ln·n)")
	}
}

// --- Theorem 8.2: the headline scaling ---

func BenchmarkThm82Scaling(b *testing.B) {
	pr := core.MustNew(core.DefaultParams(benchN))
	ln := math.Log(float64(benchN))
	var norm []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(uint64(i)+100))
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			b.Fatalf("%+v", res)
		}
		norm = append(norm, res.ParallelTime()/(ln*math.Log(ln)))
	}
	b.ReportMetric(stats.Mean(norm), "t/(lnn·lnlnn)")
}

// --- Substrate: one-way epidemic ---

func BenchmarkEpidemic(b *testing.B) {
	p, err := epidemic.New(benchN, 1)
	if err != nil {
		b.Fatal(err)
	}
	nln := float64(benchN) * math.Log(float64(benchN))
	var norm []float64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[uint32, *epidemic.Protocol](p, rng.New(uint64(i)+1))
		res := r.Run()
		if !res.Converged {
			b.Fatalf("%+v", res)
		}
		norm = append(norm, float64(res.Interactions)/nln)
	}
	b.ReportMetric(stats.Mean(norm), "completion/(n·ln·n)")
}

// --- Ablations ---

func BenchmarkAblationNoFastElim(b *testing.B) {
	params := core.DefaultParams(benchN)
	params.NoFastElim = true
	benchElect[core.State](b, core.MustNew(params))
}

func BenchmarkAblationNoDrag(b *testing.B) {
	params := core.DefaultParams(benchN)
	params.NoDrag = true
	benchElect[core.State](b, core.MustNew(params))
}

// --- Engine throughput (interactions/sec baseline for everything above) ---

func BenchmarkEngineThroughput(b *testing.B) {
	pr := core.MustNew(core.DefaultParams(1 << 16))
	r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(1))
	b.ResetTimer()
	r.RunSteps(uint64(b.N))
}

// Smoke-check that the experiment registry powers cmd/paperbench.
func BenchmarkPaperbenchSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, ok := experiments.Lookup("epidemic")
		if !ok {
			b.Fatal("registry broken")
		}
		tables := run(experiments.Config{Sizes: []int{512}, TrialConfig: sim.TrialConfig{Trials: 2, Seed: uint64(i)}})
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("no output")
		}
	}
}

// --- Backend comparison: dense vs counts on identical workloads ---

// benchBackend runs one full GS18 election per iteration on the given
// backend and reports mean parallel time plus interaction throughput.
// batch 0 keeps the auto policy; any other value fixes the counts batch
// length.
func benchBackend(b *testing.B, n int, backend sim.Backend, batch uint64) {
	b.Helper()
	pr := gs18.MustNew(gs18.DefaultParams(n))
	var interactions uint64
	for i := 0; i < b.N; i++ {
		eng, err := sim.NewEngine[uint32, *gs18.Protocol](pr, rng.New(uint64(i)+1), backend)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := eng.(*sim.CountsEngine[uint32]); ok && batch != 0 {
			c.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed, Len: batch})
		}
		res := eng.Run()
		if !res.Converged || res.Leaders != 1 {
			b.Fatalf("iteration %d: %+v", i, res)
		}
		interactions += res.Interactions
	}
	b.ReportMetric(float64(interactions)/b.Elapsed().Seconds()/1e6, "Minteractions/s")
}

func BenchmarkBackendDenseGS18(b *testing.B) { benchBackend(b, 1<<15, sim.BackendDense, 0) }

// BenchmarkBackendCountsExactGS18 measures the exact per-interaction path:
// at 2¹⁵ the auto policy is exact mode. (A fixed length of 1 is not the
// same thing — it pays a scheduling unit per interaction.)
func BenchmarkBackendCountsExactGS18(b *testing.B) { benchBackend(b, 1<<15, sim.BackendCounts, 0) }
func BenchmarkBackendCountsBatchGS18(b *testing.B) { benchBackend(b, 1<<15, sim.BackendCounts, 1<<12) }

// BenchmarkBackendCountsMillion runs a full GS18 election at n = 2²⁰ per
// iteration — a population the dense backend needs minutes for. At this
// size the auto policy resolves to the drift-bounded adaptive controller.
func BenchmarkBackendCountsMillion(b *testing.B) {
	benchBackend(b, 1<<20, sim.BackendCounts, 0)
}

// BenchmarkBackendCountsFixedMillion is the same election under the fixed
// n/8 policy — the throughput side of the batch-policy dial (compare
// against BenchmarkBackendCountsMillion's adaptive default).
func BenchmarkBackendCountsFixedMillion(b *testing.B) {
	benchBackend(b, 1<<20, sim.BackendCounts, 1<<17)
}

// BenchmarkCountsEngineSetup times building the GSU19 counts engine at
// n = 2²² through the registry (Lookup, Entry.New, Instance.Engine), the
// setup every counts trial pays before its first interaction. GSU19 starts
// every agent in one state, so Reset makes n Init calls but a single index
// lookup. Reports ns/agent; there is no floor.
func BenchmarkCountsEngineSetup(b *testing.B) {
	const n = 1 << 22
	for i := 0; i < b.N; i++ {
		entry, ok := protocols.Lookup("gsu19")
		if !ok {
			b.Fatal("gsu19 not registered")
		}
		inst, err := entry.New(n, protocols.Overrides{})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := inst.Engine(rng.New(uint64(i)+1), sim.BackendCounts)
		if err != nil {
			b.Fatal(err)
		}
		var agents int64
		for _, c := range eng.Counts() {
			agents += c
		}
		if agents != n {
			b.Fatalf("iteration %d: census holds %d agents, want %d", i, agents, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/agent")
}

// --- Clock-span regression (runs in CI's bench-smoke job) ---

// BenchmarkClockSpanGS18Adaptive is the clock-health regression the CI
// bench-smoke job executes: a full GS18 election at n = 2²⁰ on the counts
// backend under the faithful adaptive batch policy, with a census probe
// measuring the bulk (99%-mass) phase span each parallel-time unit. It
// fails outright if the span reaches the derived Γ's wrap window Γ/2 —
// the PR 3 tearing signature — and reports the measured maximum as a
// metric so the margin stays visible in bench logs.
func BenchmarkClockSpanGS18Adaptive(b *testing.B) {
	n := 1 << 20
	pr := gs18.MustNew(gs18.DefaultParams(n))
	gamma := phaseclock.DefaultGamma(n)
	var worst float64
	for i := 0; i < b.N; i++ {
		eng, err := sim.NewEngine[uint32, *gs18.Protocol](pr, rng.New(uint64(i)+1), sim.BackendCounts)
		if err != nil {
			b.Fatal(err)
		}
		eng.(*sim.CountsEngine[uint32]).SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
		meter := phaseclock.NewSpanMeter(gamma)
		if err := sim.AddProbe[uint32](eng, func(step uint64, v sim.CensusView[uint32]) {
			meter.Begin()
			v.VisitStates(func(s uint32, count int64) { meter.Add(uint8(s&0xff), count) })
			meter.End()
		}, uint64(n)); err != nil {
			b.Fatal(err)
		}
		res := eng.Run()
		if !res.Converged || res.Leaders != 1 {
			b.Fatalf("iteration %d: %+v", i, res)
		}
		if meter.MaxBulk() >= gamma/2 {
			b.Fatalf("iteration %d: bulk phase span %d reached Γ/2 = %d (Γ=%d): tearing signature",
				i, meter.MaxBulk(), gamma/2, gamma)
		}
		if float64(meter.MaxBulk()) > worst {
			worst = float64(meter.MaxBulk())
		}
	}
	b.ReportMetric(worst, "max-bulk-span")
	b.ReportMetric(float64(gamma)/2, "gamma/2")
}

// --- Multicore counts engine: sharded batch sampling ---

// benchCountsParallel measures steady-state adaptive-policy throughput on
// a fixed n = 10⁸ interaction slab with the given sampling shard count —
// the CI smoke over the sharded batch path (the full workers × n grid
// behind bench-results/parscale.csv runs through the parscale
// experiment). On a single-core host all worker counts collapse to the
// same wall time (the shards serialize); the W1-vs-W4 ratio is meaningful
// only on multicore hardware.
func benchCountsParallel(b *testing.B, workers int) {
	const n = 100_000_000
	const slab = 100_000_000
	pr := gs18.MustNew(gs18.DefaultParams(n))
	eng := sim.NewCountsEngine[uint32](pr, rng.New(1))
	eng.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
	eng.SetWorkers(workers)
	// Advance past the initial ramp so iterations measure the bulk phase.
	eng.RunSteps(slab / 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunSteps(slab)
	}
	b.ReportMetric(float64(b.N)*slab/b.Elapsed().Seconds()/1e6, "Minteractions/s")
}

func BenchmarkCountsParallelW1(b *testing.B) { benchCountsParallel(b, 1) }
func BenchmarkCountsParallelW2(b *testing.B) { benchCountsParallel(b, 2) }
func BenchmarkCountsParallelW4(b *testing.B) { benchCountsParallel(b, 4) }
func BenchmarkCountsParallelW8(b *testing.B) { benchCountsParallel(b, 8) }

// BenchmarkComposedDenseGS18 is the composed-dense regression gate the CI
// bench-smoke job executes: GS18 — a kit-built composition since the
// compose refactor — must sustain at least the pre-kit dense throughput
// (14.9 Minteractions/s, measured on the reference 2.7 GHz Xeon) now that
// the module pipeline compiles into a flat pair-table memo (see
// compose.DeltaMemo; the compiled path measures ~19.8 on the same host).
// A drop below the gate means the compiled path stopped engaging — e.g.
// CompileDelta returning nil for GS18's space — or regressed outright.
func BenchmarkComposedDenseGS18(b *testing.B) {
	const floor = 14.9
	pr := gs18.MustNew(gs18.DefaultParams(1 << 15))
	var interactions uint64
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner[uint32, *gs18.Protocol](pr, rng.New(uint64(i)+1))
		res := r.Run()
		if !res.Converged || res.Leaders != 1 {
			b.Fatalf("iteration %d: %+v", i, res)
		}
		interactions += res.Interactions
	}
	mps := float64(interactions) / b.Elapsed().Seconds() / 1e6
	b.ReportMetric(mps, "Minteractions/s")
	if mps < floor {
		b.Fatalf("composed dense GS18 throughput %.1f Minteractions/s regressed below the pre-kit %.1f baseline",
			mps, floor)
	}
}

// BenchmarkExactEndgame is the silent-step-skipping regression gate the
// CI bench-smoke job executes: a fixed 20M-interaction exact-mode run of
// the one-way epidemic at n = 2¹⁶, which converges after ~n·ln n ≈ 0.7M
// interactions and then sits in a fully-silent endgame — exactly the
// regime the reactive-pair layer (internal/sim/reactive.go) turns into
// geometric skips. Pre-skip the exact path sustained ~30 Minteractions/s
// here (reference host); with skipping the endgame is near-free, so the
// gate demands ≥3× that. The issue that introduced the skip asked for
// this gate on GS18, but GS18 never goes silent — its parity module
// toggles a responder bit on every interaction, so every ordered pair
// stays reactive forever and the skip self-gates off (measured: reactive
// fraction 1.0000 at every decile; see bench-results/exactskip.csv) —
// hence the epidemic workload. A drop below the floor means the skip
// stopped engaging (e.g. the silent-run detector or the R-mass
// maintenance broke) or the exact path regressed outright.
func BenchmarkExactEndgame(b *testing.B) {
	const floor = 90.0 // 3× the 29.98 Minteractions/s pre-skip exact path
	const n = 1 << 16
	const budget = 20_000_000
	p, err := epidemic.New(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eng := sim.NewCountsEngine[uint32](p, rng.New(uint64(i)+1))
		// Auto policy at n < ExactMaxN resolves to BatchExact: whole-budget
		// per-interaction chunks, the regime the skip layer targets. (A
		// fixed Len=1 policy would instead dispatch single-step chunks,
		// where the chunk-local silent-run detector can never engage.)
		eng.RunSteps(budget)
	}
	mps := float64(b.N) * budget / b.Elapsed().Seconds() / 1e6
	b.ReportMetric(mps, "Minteractions/s")
	if mps < floor {
		b.Fatalf("exact-mode epidemic endgame throughput %.1f Minteractions/s below the %.0f gate (3× pre-skip): silent-step skipping not engaging",
			mps, floor)
	}
}

// --- Probe overhead on the counts backend ---

// benchCountsProbe runs one full GS18 election per iteration on the counts
// backend with an optional census probe at the given interval, reporting
// interaction throughput. Comparing the probe-free baseline against the
// probed runs quantifies what probing costs: the probe body is O(occupied
// states) per fire, and any interval that does not divide the batch length
// forces batch splits at probe boundaries (see CountsEngine.AddProbe).
// Every variant pins the n/8 fixed-batch policy the recorded overhead
// numbers were measured under: auto now resolves to adaptive throughout
// these sizes, which schedules its own batch lengths and would conflate
// policy choice with probe cost.
func benchCountsProbe(b *testing.B, n int, every uint64) {
	b.Helper()
	pr := gs18.MustNew(gs18.DefaultParams(n))
	var interactions uint64
	var sink int
	for i := 0; i < b.N; i++ {
		eng, err := sim.NewEngine[uint32, *gs18.Protocol](pr, rng.New(uint64(i)+1), sim.BackendCounts)
		if err != nil {
			b.Fatal(err)
		}
		eng.(*sim.CountsEngine[uint32]).SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed})
		if every > 0 {
			if err := sim.AddProbe[uint32](eng, func(step uint64, v sim.CensusView[uint32]) {
				sink += v.Leaders() + v.Occupied()
			}, every); err != nil {
				b.Fatal(err)
			}
		}
		res := eng.Run()
		if !res.Converged || res.Leaders != 1 {
			b.Fatalf("iteration %d: %+v", i, res)
		}
		interactions += res.Interactions
	}
	_ = sink
	b.ReportMetric(float64(interactions)/b.Elapsed().Seconds()/1e6, "Minteractions/s")
}

// The three cadences of the probe-overhead contract: no probe (baseline),
// one probe per parallel-time unit (interval n — the scalefigures cadence,
// which the acceptance bound holds at), and a dense-observer-style fine
// cadence (interval n/64, forcing every fixed n/8 batch to split 8-fold).
func BenchmarkCountsProbeFree(b *testing.B)      { benchCountsProbe(b, 1<<20, 0) }
func BenchmarkCountsProbeIntervalN(b *testing.B) { benchCountsProbe(b, 1<<20, 1<<20) }
func BenchmarkCountsProbeDenseCadence(b *testing.B) {
	benchCountsProbe(b, 1<<20, 1<<(20-6))
}

// The same pair at n = 10⁸ — the scale the acceptance criterion speaks
// about (probed runtime at interval n within 2× of probe-free). Each
// iteration is a full stabilization (~15 s); run with -benchtime=1x.
func BenchmarkCountsProbeFreeHundredMillion(b *testing.B) {
	benchCountsProbe(b, 100_000_000, 0)
}
func BenchmarkCountsProbeIntervalNHundredMillion(b *testing.B) {
	benchCountsProbe(b, 100_000_000, 100_000_000)
}

// --- rng samplers feeding the counts backend's batch chains ---

func BenchmarkBinomial(b *testing.B) {
	s := rng.New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += s.Binomial(1<<30, 0.3)
	}
	_ = sink
}

func BenchmarkHypergeometricHRUA(b *testing.B) {
	s := rng.New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += s.Hypergeometric(1<<20, 1<<26, 1<<24)
	}
	_ = sink
}

func BenchmarkHypergeometricSmallClass(b *testing.B) {
	// The counts backend's typical census draw: a tiny state class meeting
	// a huge batch (served by inversion after orientation swap).
	s := rng.New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += s.Hypergeometric(7, 1<<26, 1<<23)
	}
	_ = sink
}

func BenchmarkAliasSample(b *testing.B) {
	s := rng.New(1)
	w := make([]float64, 300)
	for i := range w {
		w[i] = float64(i%7) + 0.1
	}
	a := rng.MustAlias(w)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Sample(s)
	}
	_ = sink
}
