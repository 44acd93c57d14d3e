package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"reflect"
	"strings"
	"testing"

	"popelect/internal/epidemic"
	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// ckptBackends enumerates the checkpointable engine kinds.
var ckptBackends = []string{"dense", "counts"}

// shardedCkptFile is a snapshot written by the removed sharded engine
// (format version 3, GS18 at n = 1024 over K = 2 shards, seed 3, after
// 5000 interactions).
const shardedCkptFile = "testdata/sharded-v3.ckpt"

func buildCkptEngine(t *testing.T, kind string, n int, seed uint64) sim.Engine {
	t.Helper()
	pr := gs18.MustNew(gs18.DefaultParams(n))
	src := rng.New(seed)
	switch kind {
	case "dense":
		return sim.NewRunner[uint32, *gs18.Protocol](pr, src)
	case "counts":
		return sim.NewCountsEngine[uint32](pr, src)
	}
	t.Fatalf("unknown engine kind %q", kind)
	return nil
}

// probeRec is one probe observation; the series equality checks below pin
// that probes fire at the same steps with the same census after a resume.
type probeRec struct {
	step    uint64
	leaders int
	classes []int64
}

func recordingProbe(dst *[]probeRec) sim.Probe[uint32] {
	return func(step uint64, v sim.CensusView[uint32]) {
		*dst = append(*dst, probeRec{step, v.Leaders(), append([]int64(nil), v.Classes()...)})
	}
}

func sameResult(t *testing.T, label string, got, want sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result diverged:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestCheckpointResumeBudget is the resume-equivalence smoke at n = 2²⁰ on
// both backends (budget-limited so it rides the -race job): a
// checkpointing run must match a plain run byte-for-byte, and resuming from
// a mid-run snapshot in a fresh engine must land on the identical final
// census, step count and probe series.
func TestCheckpointResumeBudget(t *testing.T) {
	const n = 1 << 20
	const seed = 7
	budget := uint64(3 * n)
	probeEvery := uint64(n / 2)
	for _, kind := range ckptBackends {
		t.Run(kind, func(t *testing.T) {
			// Reference: no checkpointing at all.
			ref := buildCkptEngine(t, kind, n, seed)
			ref.SetBudget(budget)
			var refSeries []probeRec
			if err := sim.AddProbe[uint32](ref, recordingProbe(&refSeries), probeEvery); err != nil {
				t.Fatal(err)
			}
			refRes := ref.Run()

			// Checkpointing run: periodic snapshots must not perturb the
			// trajectory.
			ck := buildCkptEngine(t, kind, n, seed)
			ck.SetBudget(budget)
			var ckSeries []probeRec
			if err := sim.AddProbe[uint32](ck, recordingProbe(&ckSeries), probeEvery); err != nil {
				t.Fatal(err)
			}
			var snaps [][]byte
			ck.(sim.Checkpointable).SetCheckpoint(uint64(n), func(b []byte) error {
				snaps = append(snaps, append([]byte(nil), b...))
				return nil
			})
			ckRes := ck.Run()
			sameResult(t, "checkpointing run vs plain run", ckRes, refRes)
			if !reflect.DeepEqual(ckSeries, refSeries) {
				t.Fatalf("checkpointing run probe series diverged")
			}
			if len(snaps) == 0 {
				t.Fatalf("no checkpoint fired over %d interactions at cadence %d", budget, n)
			}

			// Resume: a fresh engine (deliberately mis-seeded — the stream
			// position lives in the snapshot) restores the first mid-run
			// snapshot and must finish identically.
			re := buildCkptEngine(t, kind, n, seed+999)
			re.SetBudget(budget)
			var reSeries []probeRec
			if err := sim.AddProbe[uint32](re, recordingProbe(&reSeries), probeEvery); err != nil {
				t.Fatal(err)
			}
			rc := re.(sim.Checkpointable)
			if err := rc.Restore(snaps[0]); err != nil {
				t.Fatalf("restore: %v", err)
			}
			resumeStep := re.Steps()
			if resumeStep == 0 || resumeStep >= budget {
				t.Fatalf("snapshot step %d is not mid-run (budget %d)", resumeStep, budget)
			}
			reRes := re.Run()
			sameResult(t, "resumed run vs plain run", reRes, refRes)

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

// TestCheckpointResumeStabilization pins the strong form of the law on a
// full election: the resumed run stops at the exact interaction where the
// uninterrupted run stabilized, with the identical final census.
func TestCheckpointResumeStabilization(t *testing.T) {
	if testing.Short() {
		// The -race smoke is TestCheckpointResumeBudget; full elections at
		// per-step granularity are minutes under the race detector.
		t.Skip("full-stabilization resume is covered by the long suite")
	}
	const n = 2048
	const seed = 11
	for _, kind := range ckptBackends {
		t.Run(kind, func(t *testing.T) {
			ref := buildCkptEngine(t, kind, n, seed)
			refRes := ref.Run()
			if !refRes.Converged {
				t.Fatalf("reference run did not converge: %v", refRes)
			}

			ck := buildCkptEngine(t, kind, n, seed)
			var snaps [][]byte
			ck.(sim.Checkpointable).SetCheckpoint(uint64(n), func(b []byte) error {
				snaps = append(snaps, append([]byte(nil), b...))
				return nil
			})
			sameResult(t, "checkpointing run vs plain run", ck.Run(), refRes)
			if len(snaps) < 2 {
				t.Fatalf("want at least 2 checkpoints, got %d", len(snaps))
			}

			// Resume from the middle snapshot.
			re := buildCkptEngine(t, kind, n, seed+1)
			rc := re.(sim.Checkpointable)
			if err := rc.Restore(snaps[len(snaps)/2]); err != nil {
				t.Fatalf("restore: %v", err)
			}
			sameResult(t, "resumed run vs plain run", re.Run(), refRes)
		})
	}
}

// TestCheckpointResumeSkipCell is the skip cell of the checkpoint matrix:
// a counts-exact run of the one-way epidemic whose endgame is dominated by
// geometric skipping (internal/sim/reactive.go), with checkpoint boundaries
// and probes landing inside skip regions. The contract differs from the
// plain-Step cells in one documented way: checkpoint boundaries clamp skip
// chunks, and the post-boundary *redraw* is distribution-exact (geometric
// memorylessness) but not byte-identical — so a checkpointing run may
// diverge in trajectory from an unchunked run while agreeing in law.
// Resume-equals-replay still holds exactly, with no reactive state in the
// snapshot: a resumed engine that re-registers the same cadence reproduces
// the original run's chunk boundaries (they are absolute cadence
// multiples), rebuilds the skip state from the serialized census, and must
// match the uninterrupted checkpointing run byte-for-byte — Result, probe
// series, every subsequent checkpoint snapshot, and the final engine
// snapshot.
func TestCheckpointResumeSkipCell(t *testing.T) {
	const n = 1 << 13
	const seed = 17
	budget := uint64(24 * n) // comfortably past the ≈ 2n·ln n ≈ 18n completion time
	probeEvery := uint64(n / 2)
	ckptEvery := uint64(4 * n)
	build := func(seed uint64) *sim.CountsEngine[uint32] {
		p, err := epidemic.New(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewCountsEngine[uint32](p, rng.New(seed))
		e.SetBudget(budget)
		return e
	}
	finalSnap := func(e *sim.CountsEngine[uint32]) []byte {
		b, err := e.Snapshot()
		if err != nil {
			t.Fatalf("final snapshot: %v", err)
		}
		return b
	}

	// Reference: the uninterrupted checkpointing run.
	ck := build(seed)
	var ckSeries []probeRec
	if err := sim.AddProbe[uint32](ck, recordingProbe(&ckSeries), probeEvery); err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	ck.SetCheckpoint(ckptEvery, func(b []byte) error {
		snaps = append(snaps, append([]byte(nil), b...))
		return nil
	})
	ckRes := ck.Run()
	if !ckRes.Converged {
		t.Fatalf("epidemic did not complete within %d interactions: %+v", budget, ckRes)
	}
	// One-way epidemic completion is ≈ 2n·ln n ≈ 18n here, so cadence 4n
	// puts the middle snapshot deep in the endgame, where the handful of
	// remaining susceptibles make nearly every step silent and the walker
	// advances by geometric skips.
	if len(snaps) < 3 {
		t.Fatalf("want ≥3 checkpoints before completion at %d (cadence %d), got %d",
			ckRes.Interactions, ckptEvery, len(snaps))
	}

	// Law check only for the unchunked run: same convergence, similar
	// magnitude (the trajectories legitimately differ once a skip is
	// redrawn at a checkpoint boundary; TestSkipStabilizationKS pins the
	// distributional agreement properly).
	plain := build(seed)
	plainRes := plain.Run()
	if !plainRes.Converged {
		t.Fatalf("unchunked epidemic did not complete: %+v", plainRes)
	}

	// Kill-and-resume from the mid-run snapshot: re-register the same
	// cadence (boundaries are absolute multiples, so the tail chunking
	// replays), restore, and the whole tail must be byte-identical.
	re := build(seed + 999)
	var reSeries []probeRec
	if err := sim.AddProbe[uint32](re, recordingProbe(&reSeries), probeEvery); err != nil {
		t.Fatal(err)
	}
	mid := len(snaps) / 2
	var reSnaps [][]byte
	re.SetCheckpoint(ckptEvery, func(b []byte) error {
		reSnaps = append(reSnaps, append([]byte(nil), b...))
		return nil
	})
	if err := re.Restore(snaps[mid]); err != nil {
		t.Fatalf("restore: %v", err)
	}
	resumeStep := re.Steps()
	if resumeStep == 0 || resumeStep >= ckRes.Interactions {
		t.Fatalf("snapshot step %d is not mid-run (completion %d)", resumeStep, ckRes.Interactions)
	}
	sameResult(t, "resumed skip run vs checkpointing run", re.Run(), ckRes)
	var wantTail []probeRec
	for _, p := range ckSeries {
		if p.step > resumeStep {
			wantTail = append(wantTail, p)
		}
	}
	if !reflect.DeepEqual(reSeries, wantTail) {
		t.Fatalf("resumed probe series diverged from the checkpointing run's tail:\n got %v\nwant %v", reSeries, wantTail)
	}
	wantSnaps := snaps[mid+1:]
	if len(reSnaps) != len(wantSnaps) {
		t.Fatalf("resumed run emitted %d checkpoints after step %d, want %d", len(reSnaps), resumeStep, len(wantSnaps))
	}
	for i := range reSnaps {
		if !bytes.Equal(reSnaps[i], wantSnaps[i]) {
			t.Fatalf("checkpoint %d after resume differs byte-wise from the original run's", i)
		}
	}
	if !bytes.Equal(finalSnap(re), finalSnap(ck)) {
		t.Fatalf("final engine snapshots differ between resumed and uninterrupted runs")
	}
}

// TestCheckpointResumeDenseTracked covers the dense runner's seen-set
// serialization: DistinctStates must survive the resume.
func TestCheckpointResumeDenseTracked(t *testing.T) {
	const n = 2048
	pr := gs18.MustNew(gs18.DefaultParams(n))
	ref := sim.NewRunner[uint32, *gs18.Protocol](pr, rng.New(3))
	ref.TrackStates = true
	refRes := ref.Run()
	if refRes.DistinctStates == 0 {
		t.Fatalf("reference run tracked no states")
	}

	ck := sim.NewRunner[uint32, *gs18.Protocol](pr, rng.New(3))
	ck.TrackStates = true
	var snaps [][]byte
	ck.SetCheckpoint(uint64(n), func(b []byte) error {
		snaps = append(snaps, append([]byte(nil), b...))
		return nil
	})
	sameResult(t, "checkpointing run", ck.Run(), refRes)

	re := sim.NewRunner[uint32, *gs18.Protocol](pr, rng.New(4))
	re.TrackStates = true
	if err := re.Restore(snaps[0]); err != nil {
		t.Fatalf("restore: %v", err)
	}
	sameResult(t, "resumed run", re.Run(), refRes)
}

func wantRestoreError(t *testing.T, eng sim.Engine, snap []byte, substr string) {
	t.Helper()
	err := eng.(sim.Checkpointable).Restore(snap)
	if err == nil {
		t.Fatalf("Restore accepted a snapshot that should be rejected (%s)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

// reseal recomputes the trailing self-check hash after a deliberate header
// mutation, so the mutation is reached instead of tripping the hash check.
func reseal(snap []byte) {
	body := snap[: len(snap)-sha256.Size : len(snap)-sha256.Size]
	sum := sha256.Sum256(body)
	copy(snap[len(snap)-sha256.Size:], sum[:])
}

// ckptHeadOffsets walks a checkpoint payload head (live n, perturbation
// section, scheduler PRNG state, step) and returns the offsets of the
// perturbation cursor (-1 when unperturbed), the step and the engine's
// middle section.
func ckptHeadOffsets(p []byte) (cursor, step, middle int) {
	cursor = -1
	off := 8
	perturbed := p[off] == 1
	off++
	if perturbed {
		off += 4 + int(binary.LittleEndian.Uint32(p[off:]))
		off += 8 + int(binary.LittleEndian.Uint64(p[off:]))
		cursor = off
		off += 8
	}
	off += 8 + int(binary.LittleEndian.Uint64(p[off:]))
	return cursor, off, off + 8
}

// wantPayloadError snapshots a fuzzCkptEngine configuration mid-run,
// applies patch to the payload, re-seals it and requires Restore to reject
// it with an error mentioning substr. These are fields whose bad values a
// decoder could accept and Run would only trip over later.
func wantPayloadError(t *testing.T, kind uint8, churn bool, substr string, patch func(p []byte)) {
	t.Helper()
	eng := fuzzCkptEngine(t, kind, churn)
	eng.RunSteps(3 * fuzzCkptN)
	snap, err := eng.(sim.Checkpointable).Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	p := sim.CheckpointPayload(snap)
	patch(p)
	err = restoreResealed(t, fuzzCkptEngine(t, kind, churn), p)
	if err == nil {
		t.Fatalf("Restore accepted a payload that should be rejected (%s)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestCheckpointFormatRejection(t *testing.T) {
	const n = 300
	eng := buildCkptEngine(t, "counts", n, 5)
	eng.RunSteps(100)
	snap, err := eng.(sim.Checkpointable).Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	fresh := func() sim.Engine { return buildCkptEngine(t, "counts", n, 5) }

	// Truncated and corrupted snapshots.
	wantRestoreError(t, fresh(), snap[:40], "truncated")
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x40
	wantRestoreError(t, fresh(), corrupt, "self-check hash")
	junk := make([]byte, len(snap))
	wantRestoreError(t, fresh(), junk, "format tag")

	// Format-version mismatch (header rewritten, hash recomputed so the
	// version check itself is what rejects).
	wrongVer := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(wrongVer[8:], sim.CheckpointVersion+1)
	reseal(wrongVer)
	wantRestoreError(t, fresh(), wrongVer, "format version")

	// A version-2 snapshot, whose counts payload still carried the removed
	// BatchLen fingerprint, is rejected by version rather than misparsed.
	v2 := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(v2[8:], 2)
	reseal(v2)
	wantRestoreError(t, fresh(), v2, "format version 2;")

	// Payload fields that pass the framing checks but are out of range.
	const countsExact = 1 // fuzzCkptEngine kind
	le := binary.LittleEndian
	wantPayloadError(t, countsExact, true, "ahead of step", func(p []byte) {
		// A perturbation cursor past the step would underflow the next
		// application's elapsed span.
		cursor, step, _ := ckptHeadOffsets(p)
		le.PutUint64(p[cursor:], le.Uint64(p[step:])+1)
	})
	wantPayloadError(t, countsExact, false, "census count", func(p []byte) {
		// Four counts of 2⁶² wrap the int64 sum, so the census still sums
		// to the live n; only the per-count bound catches it.
		_, _, mid := ckptHeadOffsets(p)
		m := int(le.Uint32(p[mid+41:])) // after adaptLen, workers ×2, policy
		pops := mid + 45 + 4*m
		if m < 5 {
			t.Fatalf("need 5 discovered states, have %d", m)
		}
		var head uint64
		for i := 0; i < 5; i++ {
			head += le.Uint64(p[pops+8*i:])
		}
		for i := 0; i < 4; i++ {
			le.PutUint64(p[pops+8*i:], 1<<62)
		}
		le.PutUint64(p[pops+32:], head)
	})

	// Engine-kind, population and protocol mismatches.
	wantRestoreError(t, buildCkptEngine(t, "dense", n, 5), snap, "counts engine")
	// A snapshot of the removed sharded engine (kind 3, still reserved)
	// fails loudly by name on both engines, without a version bump.
	sharded, err := os.ReadFile(shardedCkptFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range ckptBackends {
		wantRestoreError(t, buildCkptEngine(t, kind, 1024, 3), sharded,
			"checkpoint is for the sharded engine, not "+kind)
	}
	wantRestoreError(t, buildCkptEngine(t, "counts", n+100, 5), snap, "population")

	// A registered-probe mismatch: the snapshot has no probe schedules.
	withProbe := fresh()
	if err := sim.AddProbe[uint32](withProbe, func(uint64, sim.CensusView[uint32]) {}, 50); err != nil {
		t.Fatal(err)
	}
	wantRestoreError(t, withProbe, snap, "probe")

	// The valid snapshot still restores after all the rejected attempts.
	ok := fresh()
	if err := ok.(sim.Checkpointable).Restore(snap); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if ok.Steps() != eng.Steps() {
		t.Fatalf("restored step %d, want %d", ok.Steps(), eng.Steps())
	}
}

// TestRunTrialsCheckpointResume drives the trial-level plumbing end to end:
// phase one runs under a small budget with periodic checkpoints, phase two
// resumes from the files and must reproduce the uninterrupted trials
// exactly.
func TestRunTrialsCheckpointResume(t *testing.T) {
	const n = 2048
	pr := gs18.MustNew(gs18.DefaultParams(n))
	factory := func(int) *gs18.Protocol { return pr }
	for _, backend := range []sim.Backend{sim.BackendDense, sim.BackendCounts} {
		t.Run(string(backend), func(t *testing.T) {
			base := sim.TrialConfig{Trials: 3, Seed: 21, Backend: backend}

			want, err := sim.RunTrials[uint32, *gs18.Protocol](factory, base)
			if err != nil {
				t.Fatal(err)
			}
			if !sim.AllConverged(want) {
				t.Fatalf("uninterrupted trials did not converge")
			}

			dir := t.TempDir()
			interrupted := base
			interrupted.MaxInteractions = 2 * n // "crash" well before stabilization
			interrupted.CheckpointEvery = n / 2
			interrupted.CheckpointDir = dir
			if _, err := sim.RunTrials[uint32, *gs18.Protocol](factory, interrupted); err != nil {
				t.Fatal(err)
			}

			resumed := base
			resumed.CheckpointEvery = n / 2
			resumed.CheckpointDir = dir
			resumed.Resume = true
			got, err := sim.RunTrials[uint32, *gs18.Protocol](factory, resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed trials diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestRunTrialsCheckpointConfigErrors(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(64))
	factory := func(int) *gs18.Protocol { return pr }
	_, err := sim.RunTrials[uint32, *gs18.Protocol](factory, sim.TrialConfig{
		Trials: 1, CheckpointEvery: 10,
	})
	if err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("want CheckpointDir error, got %v", err)
	}
}
