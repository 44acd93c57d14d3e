package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// mustTrials returns an unwrapper for RunTrials results in tests that use
// a known-good configuration.
func mustTrials(t *testing.T) func([]Result, error) []Result {
	return func(rs []Result, err error) []Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
}

func TestRunTrialsBasic(t *testing.T) {
	cfg := TrialConfig{Trials: 16, Seed: 42, Workers: 4}
	rs := mustTrials(t)(RunTrials[uint32, duel](func(int) duel { return duel{50} }, cfg))
	if len(rs) != 16 {
		t.Fatalf("got %d results", len(rs))
	}
	if !AllConverged(rs) {
		t.Fatal("all duel trials must converge")
	}
	if ConvergedCount(rs) != 16 {
		t.Fatal("ConvergedCount mismatch")
	}
	for i, r := range rs {
		if r.Leaders != 1 {
			t.Fatalf("trial %d: %d leaders", i, r.Leaders)
		}
		if r.Seed != uint64(i) {
			t.Fatalf("trial %d: seed %d", i, r.Seed)
		}
	}
}

func TestRunTrialsReproducibleAcrossWorkerCounts(t *testing.T) {
	mk := func(int) duel { return duel{40} }
	a := mustTrials(t)(RunTrials[uint32, duel](mk, TrialConfig{Trials: 8, Seed: 7, Workers: 1}))
	b := mustTrials(t)(RunTrials[uint32, duel](mk, TrialConfig{Trials: 8, Seed: 7, Workers: 8}))
	for i := range a {
		if a[i].Interactions != b[i].Interactions || a[i].LeaderID != b[i].LeaderID {
			t.Fatalf("trial %d differs across worker counts: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunTrialsDifferentSeedsDiffer(t *testing.T) {
	mk := func(int) duel { return duel{100} }
	a := mustTrials(t)(RunTrials[uint32, duel](mk, TrialConfig{Trials: 4, Seed: 1}))
	b := mustTrials(t)(RunTrials[uint32, duel](mk, TrialConfig{Trials: 4, Seed: 2}))
	same := 0
	for i := range a {
		if a[i].Interactions == b[i].Interactions {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different base seeds produced identical runs")
	}
}

func TestRunTrialsZero(t *testing.T) {
	rs, err := RunTrials[uint32, duel](func(int) duel { return duel{10} }, TrialConfig{})
	if rs != nil || err != nil {
		t.Fatal("zero trials must return nil, nil")
	}
}

func TestExtractors(t *testing.T) {
	rs := []Result{
		{Interactions: 100, N: 10},
		{Interactions: 300, N: 10},
	}
	pt := ParallelTimes(rs)
	if pt[0] != 10 || pt[1] != 30 {
		t.Fatalf("ParallelTimes = %v", pt)
	}
	in := Interactions(rs)
	if in[0] != 100 || in[1] != 300 {
		t.Fatalf("Interactions = %v", in)
	}
}

func TestRunTrialsMaxInteractions(t *testing.T) {
	cfg := TrialConfig{Trials: 3, Seed: 5, MaxInteractions: 4}
	rs := mustTrials(t)(RunTrials[uint32, duel](func(int) duel { return duel{500} }, cfg))
	for _, r := range rs {
		if r.Converged {
			t.Fatal("trials cannot converge in 4 interactions from 500 leaders")
		}
		if r.Interactions != 4 {
			t.Fatalf("ran %d interactions", r.Interactions)
		}
	}
}

func TestRunTrialsTrackStates(t *testing.T) {
	cfg := TrialConfig{Trials: 2, Seed: 9, TrackStates: true}
	rs := mustTrials(t)(RunTrials[uint32, duel](func(int) duel { return duel{20} }, cfg))
	for _, r := range rs {
		if r.DistinctStates != 2 {
			t.Fatalf("distinct states = %d", r.DistinctStates)
		}
	}
}

// TestRunTrialsByteIdenticalAcrossWorkerCounts pins full determinism: the
// same seed must yield deeply equal []Result whether trials run on one
// worker, four, or GOMAXPROCS.
func TestRunTrialsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, backend := range []Backend{BackendDense, BackendCounts} {
		mk := func(int) enumDuel { return enumDuel{duel{300}} }
		base := mustTrials(t)(RunTrials[uint32, enumDuel](mk, TrialConfig{
			Trials: 12, Seed: 99, Workers: 1, Backend: backend, TrackStates: true,
		}))
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			got := mustTrials(t)(RunTrials[uint32, enumDuel](mk, TrialConfig{
				Trials: 12, Seed: 99, Workers: workers, Backend: backend, TrackStates: true,
			}))
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("backend %s: results differ between 1 and %d workers:\n%+v\nvs\n%+v",
					backend, workers, base, got)
			}
		}
	}
}

func TestRunTrialsCountsBackend(t *testing.T) {
	rs := mustTrials(t)(RunTrials[uint32, enumDuel](func(int) enumDuel { return enumDuel{duel{200}} },
		TrialConfig{Trials: 6, Seed: 3, Backend: BackendCounts}))
	if !AllConverged(rs) {
		t.Fatal("counts trials did not converge")
	}
	for i, r := range rs {
		if r.Leaders != 1 || r.LeaderID != -1 {
			t.Fatalf("trial %d: %+v", i, r)
		}
		if r.DistinctStates != 2 {
			t.Fatalf("trial %d: counts backend must report distinct states, got %d", i, r.DistinctStates)
		}
	}
}

// TestRunTrialsCountsErrorsWithoutEnumerable pins the validated-error
// contract: a counts-backend request for a protocol without finite
// state-space enumeration must be reported as an error before any worker
// spawns, not as a panic inside the pool.
func TestRunTrialsCountsErrorsWithoutEnumerable(t *testing.T) {
	rs, err := RunTrials[uint32, duel](func(int) duel { return duel{50} },
		TrialConfig{Trials: 1, Seed: 1, Backend: BackendCounts})
	if err == nil {
		t.Fatal("BackendCounts with a non-Enumerable protocol must return an error")
	}
	if rs != nil {
		t.Fatalf("misconfigured RunTrials must not return results, got %d", len(rs))
	}
}

// TestRunTrialsRejectsBadBatchEps pins that non-finite or negative batch
// drift bounds are rejected up front, not left to unbound the adaptive
// controller.
func TestRunTrialsRejectsBadBatchEps(t *testing.T) {
	for _, eps := range []float64{math.NaN(), math.Inf(1), -0.1} {
		_, err := RunTrials[uint32, enumDuel](func(int) enumDuel { return enumDuel{duel{50}} }, TrialConfig{
			Trials: 1, Backend: BackendCounts, Batch: BatchPolicy{Mode: BatchAdaptive, Eps: eps}})
		if err == nil {
			t.Errorf("RunTrials accepted ε=%g", eps)
		}
	}
}

func TestRunTrialsUnknownBackendErrors(t *testing.T) {
	_, err := RunTrials[uint32, duel](func(int) duel { return duel{50} },
		TrialConfig{Trials: 1, Seed: 1, Backend: Backend("bogus")})
	if err == nil {
		t.Fatal("unknown backend must return an error")
	}
}

func TestRunTrialsAutoFallsBackToDense(t *testing.T) {
	rs := mustTrials(t)(RunTrials[uint32, duel](func(int) duel { return duel{50} },
		TrialConfig{Trials: 2, Seed: 1, Backend: BackendAuto}))
	if !AllConverged(rs) {
		t.Fatal("auto trials did not converge")
	}
	for _, r := range rs {
		if r.LeaderID < 0 {
			t.Fatal("auto on a small non-enumerable protocol must use the dense backend (agent identities)")
		}
	}
}

// TestRunTrialsProbedPerTrialSeries pins the bulk-observation contract:
// every trial's probe sees its own engine only, fires at its cadence, and
// per-trial sinks indexed by trial need no locking.
func TestRunTrialsProbedPerTrialSeries(t *testing.T) {
	const trials = 8
	const every = 50
	type rec struct {
		steps   []uint64
		leaders []int
	}
	recs := make([]rec, trials)
	for _, backend := range []Backend{BackendDense, BackendCounts} {
		for i := range recs {
			recs[i] = rec{}
		}
		rs, err := RunTrialsProbed[uint32, enumDuel](
			func(int) enumDuel { return enumDuel{duel{300}} },
			TrialConfig{Trials: trials, Seed: 11, Backend: backend},
			TrialProbe[uint32]{Every: every, Make: func(trial int) Probe[uint32] {
				return func(step uint64, v CensusView[uint32]) {
					recs[trial].steps = append(recs[trial].steps, step)
					recs[trial].leaders = append(recs[trial].leaders, v.Leaders())
				}
			}},
		)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			got := recs[i]
			if len(got.steps) == 0 {
				t.Fatalf("backend %s trial %d: probe never fired", backend, i)
			}
			// Every boundary multiple up to the end, plus the final fire
			// when the run ends off the cadence (a run ending exactly on a
			// boundary gets one sample at that step, not two).
			want := int(r.Interactions / every)
			if r.Interactions%every != 0 {
				want++
			}
			if len(got.steps) != want {
				t.Fatalf("backend %s trial %d: %d fires over %d interactions, want %d (steps %v)",
					backend, i, len(got.steps), r.Interactions, want, got.steps)
			}
			for k := 0; k+1 < len(got.steps); k++ {
				if got.steps[k] != uint64(k+1)*every {
					t.Fatalf("backend %s trial %d: fire %d at step %d, want %d",
						backend, i, k, got.steps[k], uint64(k+1)*every)
				}
			}
			if last := got.steps[len(got.steps)-1]; last != r.Interactions {
				t.Fatalf("backend %s trial %d: final fire at %d, result says %d",
					backend, i, last, r.Interactions)
			}
			if got.leaders[len(got.leaders)-1] != r.Leaders {
				t.Fatalf("backend %s trial %d: final probe leaders %d, result %d",
					backend, i, got.leaders[len(got.leaders)-1], r.Leaders)
			}
		}
	}
}
