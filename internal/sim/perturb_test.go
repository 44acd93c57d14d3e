package sim_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

func TestPerturbParsers(t *testing.T) {
	c, err := sim.ParseChurn("2.5e-3:8e-4@3000")
	if err != nil {
		t.Fatal(err)
	}
	if c.LeaveRate != 2.5e-3 || c.JoinRate != 8e-4 || c.Until != 3000 {
		t.Fatalf("churn spec parsed to %+v", c)
	}
	if c, err = sim.ParseChurn("1e-4"); err != nil || c.LeaveRate != 1e-4 || c.JoinRate != 1e-4 {
		t.Fatalf("symmetric churn spec: %+v, %v", c, err)
	}
	if c, err = sim.ParseChurn("2.5e-3:8.3e-4@3e6"); err != nil || c.Until != 3000000 {
		t.Fatalf("scientific-notation window end: %+v, %v", c, err)
	}
	for _, bad := range []string{"", "x", "1e-4@0", "1e-4@x", "1e-4:y", "2", "1e-4@2.5"} {
		if _, err := sim.ParseChurn(bad); err == nil {
			t.Errorf("ParseChurn(%q) accepted", bad)
		}
	}

	co, err := sim.ParseCorruption("128@1000")
	if err != nil || co.K != 128 || co.At != 1000 {
		t.Fatalf("one-shot corruption spec: %+v, %v", co, err)
	}
	if co, err = sim.ParseCorruption("1e-5@500"); err != nil || co.Rate != 1e-5 || co.Until != 500 {
		t.Fatalf("rate corruption spec: %+v, %v", co, err)
	}
	if co, err = sim.ParseCorruption("1024@2e7"); err != nil || co.K != 1024 || co.At != 20000000 {
		t.Fatalf("scientific-notation one-shot step: %+v, %v", co, err)
	}
	for _, bad := range []string{"", "64", "128@0", "128@x", "abc", "-1@10", "2.0"} {
		if _, err := sim.ParseCorruption(bad); err == nil {
			t.Errorf("ParseCorruption(%q) accepted", bad)
		}
	}

	b, err := sim.ParseBias("0=4,2=0.5")
	if err != nil || !reflect.DeepEqual(b.Weights, []float64{4, 1, 0.5}) {
		t.Fatalf("bias spec: %+v, %v", b, err)
	}
	for _, bad := range []string{"", "0", "x=1", "-1=2", "0=x", "0=0", "0=-1", "10000000=2"} {
		if _, err := sim.ParseBias(bad); err == nil {
			t.Errorf("ParseBias(%q) accepted", bad)
		}
	}

	p, err := sim.ParsePerturbations("", "", "")
	if err != nil || !p.IsZero() {
		t.Fatalf("empty specs: %v, %v", p, err)
	}
	p, err = sim.ParsePerturbations("1e-4", "128@1000", "0=2")
	if err != nil {
		t.Fatal(err)
	}
	fp := p.Fingerprint()
	for _, want := range []string{"churn", "corrupt", "bias"} {
		if !strings.Contains(fp, want) {
			t.Fatalf("combined fingerprint %q missing %q", fp, want)
		}
	}
}

// TestChurnPopulationDynamics checks the macroscopic effect of each churn
// direction on the counts backend: a leave-heavy window shrinks the live
// population (never below the floor), a join-heavy one grows it, and once
// the window closes the election completes on the changed population.
func TestChurnPopulationDynamics(t *testing.T) {
	const n = 2048
	cases := []struct {
		name   string
		churn  sim.Churn
		wantLo int // live-n bounds at the end
		wantHi int
	}{
		{"shrink", sim.Churn{LeaveRate: 2e-3, Until: 100 * n}, 4, n - 1},
		{"grow", sim.Churn{JoinRate: 2e-3, Until: 100 * n}, n + 1, math.MaxInt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := gs18.MustNew(gs18.DefaultParams(n))
			eng := sim.NewCountsEngine(pr, rng.New(42))
			if err := eng.SetPerturbation(sim.Perturbation{Churn: tc.churn}); err != nil {
				t.Fatal(err)
			}
			res := eng.Run()
			if !res.Converged || res.Leaders != 1 {
				t.Fatalf("post-window election failed: %+v", res)
			}
			if res.N < tc.wantLo || res.N > tc.wantHi {
				t.Fatalf("live population %d outside [%d, %d]", res.N, tc.wantLo, tc.wantHi)
			}
		})
	}
}

// TestChurnMinNFloor drives a brutal leave rate into a tiny population: the
// floor must hold on both the dense and counts backends.
func TestChurnMinNFloor(t *testing.T) {
	const n = 64
	churn := sim.Perturbation{Churn: sim.Churn{LeaveRate: 0.5}}
	for _, kind := range []string{"dense", "counts"} {
		t.Run(kind, func(t *testing.T) {
			eng := buildCkptEngine(t, kind, n, 17)
			if err := eng.SetPerturbation(churn); err != nil {
				t.Fatal(err)
			}
			eng.SetBudget(50 * n)
			res := eng.Run()
			if res.N < 4 {
				t.Fatalf("live population %d fell below the floor", res.N)
			}
		})
	}
}

// TestCorruptionSqrtNStillElects is the resilience regression gate: GS18
// hit by a one-shot scramble of √n agents at step n·log₂ n must still
// elect a unique leader. The scramble injects spurious high-phase states
// and extra contenders mid-election; the duel and clock machinery must
// absorb them.
func TestCorruptionSqrtNStillElects(t *testing.T) {
	const n = 1 << 14
	corrupt := sim.Corruption{
		K:  int64(math.Round(math.Sqrt(n))),
		At: uint64(n * 14), // n·log₂ n
	}
	pr := gs18.MustNew(gs18.DefaultParams(n))
	eng := sim.NewCountsEngine(pr, rng.New(1019))
	eng.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
	if err := eng.SetPerturbation(sim.Perturbation{Corrupt: corrupt}); err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("√n corruption at n·log n broke the election: %+v", res)
	}
	if res.Interactions <= corrupt.At {
		t.Fatalf("run ended at step %d, before the corruption at %d fired", res.Interactions, corrupt.At)
	}
}

// TestUniformBiasMatchesUnbiasedLaw pins the documented semantics of
// all-equal weights: the biased scheduler path (rejection sampling on
// dense, reweighted alias tables on the batched counts backend) must
// reproduce the uniform scheduler's law. The streams differ — the biased
// path consumes extra randomness — so the check is distributional
// (two-sample KS on stabilization times), not byte identity.
func TestUniformBiasMatchesUnbiasedLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("4×40 GS18 elections at n=1024")
	}
	const n = 1024
	const trials = 40
	pr := gs18.MustNew(gs18.DefaultParams(n))
	factory := func(int) sim.Protocol { return pr }
	for _, tc := range []struct {
		name    string
		backend sim.Backend
		batch   sim.BatchPolicy
	}{
		{"dense", sim.BackendDense, sim.BatchPolicy{}},
		{"counts-adaptive", sim.BackendCounts, sim.BatchPolicy{Mode: sim.BatchAdaptive}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := sim.RunTrials(factory, sim.TrialConfig{
				Trials: trials, Seed: 31, Backend: tc.backend, Batch: tc.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			biased, err := sim.RunTrials(factory, sim.TrialConfig{
				Trials: trials, Seed: 67, Backend: tc.backend, Batch: tc.batch,
				Perturb: sim.Perturbation{Bias: sim.Bias{Weights: []float64{1}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sim.AllConverged(plain) || !sim.AllConverged(biased) {
				t.Fatalf("convergence: plain %d/%d, uniform-bias %d/%d",
					sim.ConvergedCount(plain), trials, sim.ConvergedCount(biased), trials)
			}
			d := stats.KolmogorovSmirnov(sim.ParallelTimes(plain), sim.ParallelTimes(biased))
			if crit := stats.KSCritical(trials, trials, 0.001); d > crit {
				t.Fatalf("KS statistic %.4f exceeds the α=0.001 critical value %.4f", d, crit)
			}
		})
	}
}

// TestPerturbedElectionAtScale is CI's resilience cell (bench-smoke runs
// it under -race): one GS18 election at n = 2²⁰ on the adaptive counts
// engine under an early net-leave churn window plus a biased scheduler —
// it must still elect a unique leader over the drifted population. The
// scenario is corruption-free on purpose: uniform scrambles at n ≥ 2¹⁶
// mint states no legal execution reaches and GS18 is not self-stabilizing
// from those (see the resilience matrix in README.md), so the √n-corruption
// regression gate lives at its validated size in
// TestCorruptionSqrtNStillElects instead. The explicit budget bounds a
// failing run at 2000n interactions rather than the engine default.
func TestPerturbedElectionAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("a full n=2²⁰ perturbed election; bench-smoke runs it under -race")
	}
	const n = 1 << 20
	p := sim.Perturbation{
		Churn: sim.Churn{LeaveRate: 1e-3, JoinRate: 3e-4, Until: 30 * n},
		Bias:  sim.Bias{Weights: []float64{2, 1}},
	}
	pr := gs18.MustNew(gs18.DefaultParams(n))
	eng := sim.NewCountsEngine(pr, rng.New(2027))
	eng.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
	eng.SetBudget(2000 * n)
	if err := eng.SetPerturbation(p); err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("perturbed election failed: %+v", res)
	}
	if res.N >= n {
		t.Fatalf("live population %d did not shrink under net-leave churn", res.N)
	}
}

// perturbCases enumerates the engine × perturbation resume matrix: every
// built-in on every backend. The corruption one-shot is placed after the first checkpoint so
// the resumed run must replay a still-pending forced boundary.
func perturbCases(n int) []struct {
	kind, name string
	p          sim.Perturbation
} {
	churn := sim.Perturbation{Churn: sim.Churn{LeaveRate: 1e-3, JoinRate: 5e-4}}
	corrupt := sim.Perturbation{Corrupt: sim.Corruption{K: 32, At: uint64(2 * n)}}
	bias := sim.Perturbation{Bias: sim.Bias{Weights: []float64{2, 1}}}
	return []struct {
		kind, name string
		p          sim.Perturbation
	}{
		{"dense", "churn", churn}, {"dense", "corruption", corrupt}, {"dense", "bias", bias},
		{"counts", "churn", churn}, {"counts", "corruption", corrupt}, {"counts", "bias", bias},
		{"counts-adaptive", "churn", churn}, {"counts-adaptive", "bias", bias},
	}
}

// TestPerturbedCheckpointResume extends the resume-equals-replay law to
// active perturbations: with a churn, corruption or bias attached, a
// checkpointing run must match an uninterrupted perturbed run
// byte-for-byte, and a kill-and-resume from a mid-run snapshot (into a
// fresh, deliberately mis-seeded engine carrying the same perturbation)
// must land on the identical final census, step count and probe series.
func TestPerturbedCheckpointResume(t *testing.T) {
	const n = 4096
	const seed = 23
	budget := uint64(6 * n)
	probeEvery := uint64(n / 2)
	for _, tc := range perturbCases(n) {
		t.Run(tc.kind+"/"+tc.name, func(t *testing.T) {
			build := func(seed uint64) sim.Engine {
				kind := tc.kind
				adaptive := kind == "counts-adaptive"
				if adaptive {
					kind = "counts"
				}
				eng := buildCkptEngine(t, kind, n, seed)
				if adaptive {
					eng.(sim.BatchConfigurable).SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
				}
				if err := eng.SetPerturbation(tc.p); err != nil {
					t.Fatal(err)
				}
				eng.SetBudget(budget)
				return eng
			}

			ref := build(seed)
			var refSeries []probeRec
			if err := sim.AddProbe(ref, recordingProbe(&refSeries), probeEvery); err != nil {
				t.Fatal(err)
			}
			refRes := ref.Run()

			ck := build(seed)
			var ckSeries []probeRec
			if err := sim.AddProbe(ck, recordingProbe(&ckSeries), probeEvery); err != nil {
				t.Fatal(err)
			}
			var snaps [][]byte
			ck.(sim.Checkpointable).SetCheckpoint(uint64(n), func(b []byte) error {
				snaps = append(snaps, append([]byte(nil), b...))
				return nil
			})
			sameResult(t, "checkpointing perturbed run vs plain perturbed run", ck.Run(), refRes)
			if !reflect.DeepEqual(ckSeries, refSeries) {
				t.Fatalf("checkpointing run probe series diverged")
			}
			if len(snaps) == 0 {
				t.Fatalf("no checkpoint fired over %d interactions at cadence %d", budget, n)
			}

			re := build(seed + 999)
			var reSeries []probeRec
			if err := sim.AddProbe(re, recordingProbe(&reSeries), probeEvery); err != nil {
				t.Fatal(err)
			}
			if err := re.(sim.Checkpointable).Restore(snaps[0]); err != nil {
				t.Fatalf("restore: %v", err)
			}
			resumeStep := re.Steps()
			if resumeStep == 0 || resumeStep >= budget {
				t.Fatalf("snapshot step %d is not mid-run (budget %d)", resumeStep, budget)
			}
			sameResult(t, "resumed perturbed run vs plain perturbed run", re.Run(), refRes)

			var wantTail []probeRec
			for _, p := range refSeries {
				if p.step > resumeStep {
					wantTail = append(wantTail, p)
				}
			}
			if !reflect.DeepEqual(reSeries, wantTail) {
				t.Fatalf("resumed probe series diverged from the reference tail:\n got %v\nwant %v", reSeries, wantTail)
			}
		})
	}
}

// TestPerturbCheckpointFlagMismatch pins the restore-time handshake: a
// snapshot taken under a perturbation only restores into an engine
// carrying the same one, in both directions and by fingerprint.
func TestPerturbCheckpointFlagMismatch(t *testing.T) {
	const n = 512
	churn := sim.Perturbation{Churn: sim.Churn{LeaveRate: 1e-3}}

	perturbed := buildCkptEngine(t, "counts", n, 9)
	if err := perturbed.SetPerturbation(churn); err != nil {
		t.Fatal(err)
	}
	perturbed.RunSteps(uint64(n))
	pSnap, err := perturbed.(sim.Checkpointable).Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	plain := buildCkptEngine(t, "counts", n, 9)
	plain.RunSteps(uint64(n))
	plainSnap, err := plain.(sim.Checkpointable).Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Perturbed snapshot into an unperturbed engine.
	wantRestoreError(t, buildCkptEngine(t, "counts", n, 9), pSnap, "SetPerturbation before Restore")

	// Plain snapshot into a perturbed engine.
	intoPerturbed := buildCkptEngine(t, "counts", n, 9)
	if err := intoPerturbed.SetPerturbation(churn); err != nil {
		t.Fatal(err)
	}
	wantRestoreError(t, intoPerturbed, plainSnap, "unperturbed")

	// Perturbed snapshot into an engine with a different perturbation.
	other := buildCkptEngine(t, "counts", n, 9)
	if err := other.SetPerturbation(sim.Perturbation{Churn: sim.Churn{LeaveRate: 2e-3}}); err != nil {
		t.Fatal(err)
	}
	wantRestoreError(t, other, pSnap, "engine has")

	// The matching engine still restores and finishes.
	ok := buildCkptEngine(t, "counts", n, 9)
	if err := ok.SetPerturbation(churn); err != nil {
		t.Fatal(err)
	}
	if err := ok.(sim.Checkpointable).Restore(pSnap); err != nil {
		t.Fatalf("matching restore rejected: %v", err)
	}
	if ok.Steps() != perturbed.Steps() {
		t.Fatalf("restored step %d, want %d", ok.Steps(), perturbed.Steps())
	}
}
