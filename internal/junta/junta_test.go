package junta

import (
	"math"
	"testing"
	"testing/quick"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

func TestNextRules(t *testing.T) {
	const phi = 4
	cases := []struct {
		name       string
		level      uint8
		mode       Mode
		otherCoin  bool
		otherLevel uint8
		wantLevel  uint8
		wantMode   Mode
	}{
		{"stopped stays", 2, Stopped, true, 3, 2, Stopped},
		{"non-coin stops", 2, Advancing, false, 0, 2, Stopped},
		{"lower coin stops", 2, Advancing, true, 1, 2, Stopped},
		{"equal coin climbs", 2, Advancing, true, 2, 3, Advancing},
		{"higher coin climbs", 2, Advancing, true, 4, 3, Advancing},
		{"at phi stays advancing", phi, Advancing, true, phi, phi, Advancing},
		{"level zero climbs on zero", 0, Advancing, true, 0, 1, Advancing},
	}
	for _, c := range cases {
		l, m := Next(c.level, c.mode, c.otherCoin, c.otherLevel, phi)
		if l != c.wantLevel || m != c.wantMode {
			t.Errorf("%s: Next = (%d, %v), want (%d, %v)", c.name, l, m, c.wantLevel, c.wantMode)
		}
	}
}

func TestNextMonotoneAndCapped(t *testing.T) {
	f := func(levelRaw, otherRaw, phiRaw uint8, modeRaw, coin bool) bool {
		phi := 1 + phiRaw%15
		level := levelRaw % (phi + 1)
		other := otherRaw % (phi + 1)
		mode := Advancing
		if modeRaw {
			mode = Stopped
		}
		nl, _ := Next(level, mode, coin, other, phi)
		return nl >= level && nl <= phi && nl <= level+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if Advancing.String() != "adv" || Stopped.String() != "stop" {
		t.Fatal("Mode.String broken")
	}
}

func TestDefaultPhi(t *testing.T) {
	cases := []struct{ n, want int }{
		{2, 1},
		{1 << 10, 1}, // log2 log2 = 3.32 → 0 → floor 1
		{1 << 16, 1}, // 4 - 3 = 1
		{1 << 20, 1}, // 4.32 - 3 = 1
		{1 << 32, 2}, // 5 - 3 = 2
	}
	for _, c := range cases {
		if got := DefaultPhi(c.n); got != c.want {
			t.Errorf("DefaultPhi(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPredictLevels(t *testing.T) {
	n := 1 << 16
	pred := PredictLevels(n, float64(n)/4, 3)
	if pred[0] != float64(n)/4 {
		t.Fatalf("C_0 = %v", pred[0])
	}
	for l := 1; l < len(pred); l++ {
		if pred[l] >= pred[l-1] {
			t.Fatalf("levels must decay: %v", pred)
		}
	}
	// C_1 = (n/4)²/2n = n/32.
	if want := float64(n) / 32; math.Abs(pred[1]-want) > 1e-6 {
		t.Fatalf("C_1 = %v, want %v", pred[1], want)
	}
}

func TestLevelBoundsBracketPrediction(t *testing.T) {
	n := 1 << 16
	c0 := float64(n) / 4
	lo, hi := LevelBounds(n, c0, 4)
	pred := PredictLevels(n, c0, 4)
	for l := range pred {
		if lo[l] > pred[l]*1.000001 || hi[l] < pred[l]*0.999999 {
			t.Fatalf("level %d: prediction %v outside [%v, %v]", l, pred[l], lo[l], hi[l])
		}
	}
}

func TestJuntaSizeBounds(t *testing.T) {
	lo, hi := JuntaSizeBounds(1 << 16)
	if lo >= hi {
		t.Fatalf("bounds inverted: %v, %v", lo, hi)
	}
	if math.Abs(lo-math.Pow(65536, 0.45)) > 1e-9 {
		t.Fatalf("lower bound %v", lo)
	}
}

func TestStandaloneValidation(t *testing.T) {
	if _, err := NewStandalone(100, 2); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, c := range []struct{ n, phi int }{{1, 2}, {100, 0}, {100, 16}} {
		if _, err := NewStandalone(c.n, c.phi); err == nil {
			t.Errorf("NewStandalone(%d, %d) should fail", c.n, c.phi)
		}
	}
}

func TestStandalonePacking(t *testing.T) {
	j, _ := NewStandalone(10, 3)
	states, ends, err := sim.InitRuns(j)
	if err != nil || len(states) != 1 || ends[0] != 10 {
		t.Fatalf("initial runs %v %v, %v; want one run", states, ends, err)
	}
	s := states[0]
	if j.Level(s) != 0 || j.ModeOf(s) != Advancing {
		t.Fatalf("init state broken: %x", s)
	}
	if j.Class(s) != 0 {
		t.Fatal("advancing coin must be class 0")
	}
	if j.Class(pack(2, Stopped)) != 1 {
		t.Fatal("stopped coin must be class 1")
	}
	if j.Leader(s) {
		t.Fatal("no leaders in coins-only protocol")
	}
	if j.Stable([]int64{0, 10}) {
		t.Fatal("standalone junta protocol never claims stability")
	}
	if j.Name() == "" || j.NumClasses() != 2 {
		t.Fatal("metadata broken")
	}
}

// TestLevelDistribution runs the coins-only protocol and checks the measured
// cumulative level populations against the Lemma 5.1/5.2 envelope (with
// slack for finite-n fluctuations).
func TestLevelDistribution(t *testing.T) {
	n := 1 << 14
	phi := 3
	j, _ := NewStandalone(n, phi)
	r := sim.NewRunner(j, rng.New(7))
	// O(n log n) interactions is plenty for all coins to settle.
	logn := math.Log(float64(n))
	r.RunSteps(uint64(8 * float64(n) * logn))

	cum := j.CumulativeCensus(r.Population())
	if cum[0] != n {
		t.Fatalf("C_0 = %d, want %d", cum[0], n)
	}
	// In a coins-only universe nothing can stop a level-0 coin (no
	// non-coins, no lower levels), so every coin reaches level 1; the
	// square-decay recurrence applies from level 1 upward.
	if cum[1] != n {
		t.Fatalf("C_1 = %d, want %d (all coins must reach level 1)", cum[1], n)
	}
	lo, _ := LevelBounds(n, float64(n), phi)
	for l := 2; l <= phi; l++ {
		c := float64(cum[l])
		if c < lo[l]/2 || c > float64(cum[l-1]) {
			t.Errorf("C_%d = %v outside envelope [%v, %v]", l, c, lo[l]/2, cum[l-1])
		}
	}
	// Decay must be strict above level 1.
	for l := 2; l <= phi; l++ {
		if cum[l] >= cum[l-1] {
			t.Errorf("C_%d = %d not smaller than C_%d = %d", l, cum[l], l-1, cum[l-1])
		}
	}
}

func TestLevelCensusSums(t *testing.T) {
	j, _ := NewStandalone(256, 2)
	r := sim.NewRunner(j, rng.New(3))
	r.RunSteps(10000)
	lv := j.LevelCensus(r.Population())
	total := 0
	for _, c := range lv {
		total += c
	}
	if total != 256 {
		t.Fatalf("level census sums to %d", total)
	}
	cum := j.CumulativeCensus(r.Population())
	if cum[0] != 256 {
		t.Fatalf("cumulative census C_0 = %d", cum[0])
	}
	for l := 0; l < len(lv); l++ {
		want := 0
		for k := l; k < len(lv); k++ {
			want += lv[k]
		}
		if cum[l] != want {
			t.Fatalf("cumulative census mismatch at %d: %d vs %d", l, cum[l], want)
		}
	}
}

// TestAdvancingCoinsVanish checks the Lemma 5.4 flavour: after O(n log n)
// interactions essentially no coin below Φ is still advancing.
func TestAdvancingCoinsVanish(t *testing.T) {
	n := 4096
	j, _ := NewStandalone(n, 3)
	r := sim.NewRunner(j, rng.New(11))
	r.RunSteps(uint64(12 * float64(n) * math.Log(float64(n))))
	stillAdvancing := 0
	for _, s := range r.Population() {
		if j.ModeOf(s) == Advancing && j.Level(s) < 3 {
			stillAdvancing++
		}
	}
	if stillAdvancing > n/100 {
		t.Fatalf("%d coins below Φ still advancing after O(n log n) interactions", stillAdvancing)
	}
}
