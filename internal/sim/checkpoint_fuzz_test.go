package sim_test

import (
	"os"
	"testing"

	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// fuzzCkptN keeps the fuzzed engines small: every input builds a fresh one.
const fuzzCkptN = 256

// fuzzCkptEngines is the number of engine configurations fuzzCkptEngine
// builds.
const fuzzCkptEngines = 3

// fuzzCkptEngine builds the engine a fuzz input restores into: kind selects
// (modulo fuzzCkptEngines) the dense runner, the counts engine in exact
// mode, or the counts engine on fixed batches (whose snapshots fall
// between batches); churn attaches a churn perturbation.
func fuzzCkptEngine(t testing.TB, kind uint8, churn bool) sim.Engine {
	t.Helper()
	pr := gs18.MustNew(gs18.DefaultParams(fuzzCkptN))
	var eng sim.Engine
	switch kind % fuzzCkptEngines {
	case 0:
		eng = sim.NewRunner(pr, rng.New(3))
	case 1:
		eng = sim.NewCountsEngine(pr, rng.New(3))
	default:
		e := sim.NewCountsEngine(pr, rng.New(3))
		e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed, Len: fuzzCkptN / 8})
		eng = e
	}
	if churn {
		if err := eng.SetPerturbation(sim.Perturbation{Churn: sim.Churn{LeaveRate: 2e-3, JoinRate: 2e-3}}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// restoreResealed restores payload, re-sealed in eng's own envelope with a
// recomputed SHA-256, so the payload reaches the engine decoder instead of
// stopping at the self-check.
func restoreResealed(t testing.TB, eng sim.Engine, payload []byte) error {
	t.Helper()
	ck := eng.(sim.Checkpointable)
	template, err := ck.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return ck.Restore(sim.ResealCheckpoint(template, payload))
}

// FuzzCheckpointRestore feeds mutated checkpoint payloads to Restore on
// both engines, seeded with snapshots of each engine configuration both
// unperturbed and under churn, plus the nested payload of a snapshot
// written by the removed sharded engine. Restore may reject the input but
// must never panic, and an accepted input must snapshot again.
func FuzzCheckpointRestore(f *testing.F) {
	for kind := uint8(0); kind < fuzzCkptEngines; kind++ {
		for _, churn := range []bool{false, true} {
			eng := fuzzCkptEngine(f, kind, churn)
			eng.RunSteps(3 * fuzzCkptN)
			snap, err := eng.(sim.Checkpointable).Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			payload := sim.CheckpointPayload(snap)
			// An unmutated seed must restore, or the fuzzer only ever
			// exercises rejection paths.
			if err := restoreResealed(f, fuzzCkptEngine(f, kind, churn), payload); err != nil {
				f.Fatalf("seed kind=%d churn=%v rejected: %v", kind, churn, err)
			}
			f.Add(kind, churn, payload)
		}
	}
	sharded, err := os.ReadFile(shardedCkptFile)
	if err != nil {
		f.Fatal(err)
	}
	for kind := uint8(0); kind < fuzzCkptEngines; kind++ {
		f.Add(kind, false, sim.CheckpointPayload(sharded))
	}
	f.Fuzz(func(t *testing.T, kind uint8, churn bool, payload []byte) {
		eng := fuzzCkptEngine(t, kind, churn)
		if restoreResealed(t, eng, payload) != nil {
			return
		}
		if _, err := eng.(sim.Checkpointable).Snapshot(); err != nil {
			t.Fatalf("restored engine cannot snapshot: %v", err)
		}
	})
}
