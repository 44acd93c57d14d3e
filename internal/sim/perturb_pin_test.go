package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// TestPerturbationFingerprintPins pins the exact configuration string of
// every scenario combination the CLI parsers produce. Checkpoints store it
// and the result store hashes it into every perturbed cell's address, so a
// changed string orphans stored entries and rejects existing snapshots.
func TestPerturbationFingerprintPins(t *testing.T) {
	const (
		churn   = "churn(leave=0.0025,join=0.0008,from=0,until=3000,minn=4)"
		oneShot = "corrupt(k=128,at=1000,rate=0,from=0,until=0)"
		rate    = "corrupt(k=0,at=0,rate=1e-05,from=0,until=500)"
		bias    = "bias(0=4,1=1,2=0.5)"
	)
	for _, c := range []struct {
		churn, corrupt, bias string
		want                 string
	}{
		{"2.5e-3:8e-4@3000", "", "", churn},
		{"", "128@1000", "", oneShot},
		{"", "1e-5@500", "", rate},
		{"", "", "0=4,2=0.5", bias},
		{"2.5e-3:8e-4@3000", "128@1000", "", churn + "+" + oneShot},
		{"2.5e-3:8e-4@3000", "", "0=4,2=0.5", churn + "+" + bias},
		{"", "1e-5@500", "0=4,2=0.5", rate + "+" + bias},
		{"2.5e-3:8e-4@3000", "128@1000", "0=4,2=0.5", churn + "+" + oneShot + "+" + bias},
	} {
		p, err := sim.ParsePerturbations(c.churn, c.corrupt, c.bias)
		if err != nil {
			t.Fatalf("ParsePerturbations(%q, %q, %q): %v", c.churn, c.corrupt, c.bias, err)
		}
		if got := p.Fingerprint(); got != c.want {
			t.Errorf("ParsePerturbations(%q, %q, %q).Fingerprint() = %q, want %q",
				c.churn, c.corrupt, c.bias, got, c.want)
		}
	}
}

// TestPerturbedSnapshotPins pins the bytes of a mid-run snapshot taken
// under churn, a one-shot corruption and a biased scheduler together, on
// both engines: the perturbation section (fingerprint, stream position,
// cursor) and every census the three have shaped so far. The corruption
// fires at 2n, before the snapshot at 3n. At this n the counts engine
// steps exactly unless the adaptive policy is asked for, which takes the
// biased batch sampler.
func TestPerturbedSnapshotPins(t *testing.T) {
	const n = 4096
	for _, c := range []struct {
		name    string
		backend sim.Backend
		batch   sim.BatchMode
		want    string
	}{
		{"dense", sim.BackendDense, sim.BatchAuto, "3f4e2773aa9d9a3af56104a108ea641bca776a8fe77d0268f032b94425cb2570"},
		{"counts", sim.BackendCounts, sim.BatchAuto, "59b0aa1dc5ec414d3b21ec6665aade124f7f4aa20b63e22efe28fded977d545e"},
		{"counts-adaptive", sim.BackendCounts, sim.BatchAdaptive, "8ee940fddac15d4df99918f198b3a42c4ece5b831fb57c1e15775af8581f1713"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := sim.ParsePerturbations("1e-3:5e-4", "32@8192", "0=2,1=0.5")
			if err != nil {
				t.Fatal(err)
			}
			pr := gs18.MustNew(gs18.DefaultParams(n))
			eng, err := sim.NewTrialEngine(pr, rng.New(31), sim.TrialConfig{Backend: c.backend, Batch: sim.BatchPolicy{Mode: c.batch}, Perturb: p})
			if err != nil {
				t.Fatal(err)
			}
			eng.RunSteps(3 * n)
			snap, err := eng.(sim.Checkpointable).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(snap)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("snapshot SHA-256 at step %d = %s, want %s", eng.Steps(), got, c.want)
			}
		})
	}
}
