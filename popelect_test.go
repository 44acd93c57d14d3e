package popelect

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestElectBasic(t *testing.T) {
	res, err := Elect(1000, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderID < 0 || res.LeaderID >= 1000 {
		t.Fatalf("bad leader id %d", res.LeaderID)
	}
	if res.Interactions == 0 || res.ParallelTime <= 0 {
		t.Fatalf("bad timing: %+v", res)
	}
}

func TestElectDeterministic(t *testing.T) {
	a, err := Elect(512, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Elect(512, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Elect(512, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Interactions == c.Interactions {
		t.Log("different seeds coincided on interaction count (unlikely but possible)")
	}
}

func TestElectAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms() {
		res, err := ElectWith(alg, 512, WithSeed(11))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.LeaderID < 0 {
			t.Fatalf("%s: no leader", alg)
		}
	}
}

func TestElectUnknownAlgorithm(t *testing.T) {
	if _, err := ElectWith("nope", 100); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

// TestStabilizeScenarioProtocols runs the registry's non-election
// protocols through the generalized entry point: they stabilize, and
// ElectWith refuses them with a pointer to Stabilize.
func TestStabilizeScenarioProtocols(t *testing.T) {
	elects := make(map[string]bool)
	for _, alg := range Algorithms() {
		elects[string(alg)] = true
	}
	ran := 0
	for _, name := range Protocols() {
		if elects[name] {
			continue
		}
		res, err := Stabilize(Algorithm(name), 600, WithSeed(8))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Interactions == 0 || res.Leaders != 0 {
			t.Fatalf("%s: %+v", name, res)
		}
		if _, err := ElectWith(Algorithm(name), 600); err == nil {
			t.Fatalf("ElectWith must refuse the non-election protocol %s", name)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("registry lists no scenario protocols")
	}
}

func TestElectRejectsTinyPopulation(t *testing.T) {
	for _, alg := range Algorithms() {
		if _, err := ElectWith(alg, 1); err == nil {
			t.Fatalf("%s accepted n=1", alg)
		}
	}
}

func TestElectBudgetExceeded(t *testing.T) {
	if _, err := Elect(4096, WithSeed(1), WithBudget(10)); err == nil {
		t.Fatal("10-interaction budget cannot elect a leader at n=4096")
	}
}

func TestElectParameterOverrides(t *testing.T) {
	res, err := Elect(512, WithSeed(5), WithGamma(48), WithPhi(2), WithPsi(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderID < 0 {
		t.Fatal("no leader")
	}
	// Invalid overrides surface as errors, not panics.
	if _, err := Elect(512, WithGamma(7)); err == nil {
		t.Fatal("odd gamma must be rejected")
	}
}

func TestElectStateTracking(t *testing.T) {
	res, err := ElectWith(Slow, 128, WithSeed(9), WithStateTracking())
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctStates != 2 {
		t.Fatalf("slow protocol uses 2 states, got %d", res.DistinctStates)
	}
	res, err = Elect(512, WithSeed(9), WithStateTracking())
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctStates < 36 {
		t.Fatalf("GSU19 distinct states implausibly low: %d", res.DistinctStates)
	}
}

func TestElectWithCountsBackend(t *testing.T) {
	res, err := ElectWith(GS18, 2000, WithSeed(3), WithBackend("counts"))
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderID != -1 {
		t.Fatalf("counts backend must report an anonymous leader, got id %d", res.LeaderID)
	}
	if res.Interactions == 0 || res.ParallelTime <= 0 {
		t.Fatalf("%+v", res)
	}
	if res.DistinctStates == 0 {
		t.Fatal("counts backend tracks distinct states inherently")
	}
	if _, err := ElectWith(GS18, 100, WithBackend("warp")); err == nil {
		t.Fatal("unknown backend must error")
	}
	// The lottery gained a generated state-space enumeration with the
	// compose-kit rebuild: it must now elect on the counts backend too.
	if res, err := ElectWith(Lottery, 2000, WithSeed(4), WithBackend("counts")); err != nil {
		t.Fatalf("lottery on counts: %v", err)
	} else if res.LeaderID != -1 || res.Interactions == 0 {
		t.Fatalf("lottery on counts: %+v", res)
	}
}

// TestElectCensusTimeline exercises the probe-backed timeline option on
// both backends: samples at the requested cadence, the initial
// configuration first, the stabilization point (one leader) last.
func TestElectCensusTimeline(t *testing.T) {
	for _, backend := range []string{"dense", "counts"} {
		res, err := ElectWith(GS18, 2000, WithSeed(5), WithBackend(backend),
			WithCensusTimeline(1000))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		tl := res.Timeline
		if len(tl) < 2 {
			t.Fatalf("%s: timeline has %d points", backend, len(tl))
		}
		if tl[0].Step != 0 {
			t.Fatalf("%s: timeline starts at step %d, want 0", backend, tl[0].Step)
		}
		for i := 1; i < len(tl); i++ {
			if tl[i].Step <= tl[i-1].Step {
				t.Fatalf("%s: timeline steps not increasing: %+v", backend, tl)
			}
			if i < len(tl)-1 && tl[i].Step%1000 != 0 {
				t.Fatalf("%s: interior sample off cadence at step %d", backend, tl[i].Step)
			}
		}
		last := tl[len(tl)-1]
		if last.Step != res.Interactions || last.Leaders != 1 {
			t.Fatalf("%s: final sample %+v, result %+v", backend, last, res)
		}
		if last.States < 1 {
			t.Fatalf("%s: final sample reports %d occupied states", backend, last.States)
		}
	}
}

func TestElectTimelineOffByDefault(t *testing.T) {
	res, err := Elect(512, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Fatal("timeline must be nil without WithCensusTimeline")
	}
}

// TestElectWithBatchPolicy exercises the batch-policy options end to end:
// every valid policy elects a unique leader on the counts backend, a fixed
// batch length is honored, and a bad policy spec surfaces as an error.
func TestElectWithBatchPolicy(t *testing.T) {
	for _, policy := range []string{"auto", "adaptive", "exact", "512"} {
		res, err := ElectWith(GS18, 2000, WithSeed(3), WithBackend("counts"),
			WithBatchPolicy(policy), WithBatchEps(0.1))
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		if res.Interactions == 0 {
			t.Fatalf("policy %q: %+v", policy, res)
		}
	}
	if _, err := Elect(100, WithBackend("counts"), WithBatchPolicy("warp")); err == nil {
		t.Fatal("bad batch policy must error")
	}
	// The dense backend ignores batch policies rather than erroring.
	if _, err := Elect(512, WithSeed(1), WithBatchPolicy("adaptive")); err != nil {
		t.Fatalf("dense backend must ignore batch policies: %v", err)
	}
}

// TestElectCheckpointResume exercises the facade's checkpoint/resume
// options end to end on both backends: a checkpointed run matches a plain
// one, and resuming from the written file reproduces it exactly (the
// resume-equals-replay law, here at the API surface).
func TestElectCheckpointResume(t *testing.T) {
	for _, backend := range []string{"dense", "counts"} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		opts := func(extra ...Option) []Option {
			return append([]Option{WithSeed(11), WithBackend(backend)}, extra...)
		}
		plain, err := ElectWith(GS18, 2048, opts()...)
		if err != nil {
			t.Fatalf("%s plain: %v", backend, err)
		}
		ckpt, err := ElectWith(GS18, 2048, opts(WithCheckpoint(path, 2048))...)
		if err != nil {
			t.Fatalf("%s checkpointed: %v", backend, err)
		}
		if !reflect.DeepEqual(plain, ckpt) {
			t.Fatalf("%s: checkpointing perturbed the run:\nplain %+v\nckpt  %+v", backend, plain, ckpt)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: no checkpoint file: %v", backend, err)
		}
		// Resuming from the written snapshot (taken at some mid-run
		// boundary or later) must land on the identical outcome.
		resumed, err := ElectWith(GS18, 2048, opts(WithResume(path))...)
		if err != nil {
			t.Fatalf("%s resumed: %v", backend, err)
		}
		if !reflect.DeepEqual(plain, resumed) {
			t.Fatalf("%s: resume diverged:\nplain   %+v\nresumed %+v", backend, plain, resumed)
		}
	}
}

// TestElectResumeMissingFileStartsFresh pins the first-run-of-a-loop
// semantics: WithResume on a nonexistent path is not an error.
func TestElectResumeMissingFileStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.ckpt")
	plain, err := Elect(1024, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Elect(1024, WithSeed(3), WithResume(path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatalf("fresh start under WithResume diverged: %+v vs %+v", plain, res)
	}
}

// TestElectCheckpointValidation pins the option-misuse errors.
func TestElectCheckpointValidation(t *testing.T) {
	if _, err := Elect(512, WithCheckpoint(filepath.Join(t.TempDir(), "x.ckpt"), 0)); err == nil {
		t.Fatal("WithCheckpoint with a zero interval must error")
	}
	// A corrupted checkpoint is an error, not a silent fresh start.
	path := filepath.Join(t.TempDir(), "junk.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Elect(512, WithResume(path)); err == nil {
		t.Fatal("resume from a corrupt file must error")
	}
	// A non-finite batch ε is an error, not an unbounded adaptive
	// controller.
	if _, err := Elect(512, WithBackend("counts"), WithBatchEps(math.NaN())); err == nil {
		t.Fatal("a NaN batch ε must error")
	}
}
