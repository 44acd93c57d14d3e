package sim

import (
	"testing"

	"popelect/internal/epidemic"
	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
)

// bruteReactive recomputes the reactive-mass state from scratch: for every
// occupied responder a, w[a] = Σ_{b occupied} react(a,b)·pop[b] − react(a,a)
// (the subtraction removes the self-pair, which needs two distinct agents),
// and R = Σ_a pop[a]·w[a]. Evaluates the protocol's transition on the
// states themselves, bypassing the id-assigning delta memo, so the check
// itself cannot perturb the engine's id assignment.
func bruteReactive(e *CountsEngine) (map[int32]int64, int64) {
	reactive := func(a, b int32) bool {
		na, nb := e.proto.Delta(e.states[a], e.states[b])
		return na != e.states[a] || nb != e.states[b]
	}
	w := make(map[int32]int64, len(e.active))
	var total int64
	for _, a := range e.active {
		var wa int64
		for _, b := range e.active {
			if reactive(a, b) {
				wa += e.pop[b]
			}
		}
		if reactive(a, a) {
			wa--
		}
		w[a] = wa
		total += e.pop[a] * wa
	}
	return w, total
}

func checkReactiveState(t *testing.T, e *CountsEngine, step int) {
	t.Helper()
	wantW, wantR := bruteReactive(e)
	rs := &e.react
	if rs.R != wantR {
		t.Fatalf("step %d: maintained R = %d, brute force %d", step, rs.R, wantR)
	}
	for _, a := range e.active {
		if rs.w[a] != wantW[a] {
			t.Fatalf("step %d: w[%d] = %d, brute force %d", step, a, rs.w[a], wantW[a])
		}
		if rs.rvals[a] != e.pop[a]*wantW[a] {
			t.Fatalf("step %d: rvals[%d] = %d, want pop·w = %d", step, a, rs.rvals[a], e.pop[a]*wantW[a])
		}
	}
}

// TestReactiveMassInvariant pins the incremental maintenance law: after
// reactBuild, every census-changing Step must leave w[·], rvals[·] and R
// equal to a from-scratch recomputation. The epidemic exercises the
// silent/reactive mix (and R → 0 at the absorbing census); GS18 exercises
// successor-state discovery mid-maintenance (its parity module keeps every
// pair reactive, so R must track n(n−1) exactly throughout).
func TestReactiveMassInvariant(t *testing.T) {
	t.Run("epidemic", func(t *testing.T) {
		p, err := epidemic.New(300, 1)
		if err != nil {
			t.Fatal(err)
		}
		e := NewCountsEngine(p, rng.New(11))
		e.reactBuild()
		checkReactiveState(t, e, 0)
		for i := 1; i <= 6000; i++ {
			e.Step()
			checkReactiveState(t, e, i)
			if e.react.R == 0 && e.pop[e.indexOf(1)] == 300 {
				return // absorbed: fully infected census is fully silent
			}
		}
		t.Fatalf("epidemic did not absorb within 6000 steps")
	})
	t.Run("gs18", func(t *testing.T) {
		pr := gs18.MustNew(gs18.DefaultParams(256))
		e := NewCountsEngine(pr, rng.New(7))
		e.reactBuild()
		checkReactiveState(t, e, 0)
		nn := int64(256) * 255
		for i := 1; i <= 2000; i++ {
			e.Step()
			checkReactiveState(t, e, i)
			if e.react.R != nn {
				t.Fatalf("step %d: GS18 R = %d, want the full pair mass %d (parity keeps every pair reactive)", i, e.react.R, nn)
			}
		}
	})
}

// TestExactSkipEngagement pins the self-gating contract on both sides:
// the converged epidemic endgame must engage the skip (and then leap whole
// chunks with R = 0), while GS18 — 100% reactive at every point of its
// execution — must never engage, leaving its exact trajectory untouched
// (the counts-exact golden trace cell pins the same fact end to end).
func TestExactSkipEngagement(t *testing.T) {
	t.Run("epidemic-engages", func(t *testing.T) {
		p, err := epidemic.New(1<<12, 1)
		if err != nil {
			t.Fatal(err)
		}
		e := NewCountsEngine(p, rng.New(3))
		budget := uint64(40 << 12) // ≈ 4.8× the n·ln n completion time
		e.RunSteps(budget)
		if e.step != budget {
			t.Fatalf("advanced %d steps, want %d", e.step, budget)
		}
		if got := e.pop[e.indexOf(1)]; got != 1<<12 {
			t.Fatalf("census after silent tail: %d infected, want %d", got, 1<<12)
		}
		if !e.react.valid {
			t.Fatalf("skip not engaged after a fully-silent endgame")
		}
		if e.react.R != 0 {
			t.Fatalf("absorbed census has R = %d, want 0", e.react.R)
		}
	})
	t.Run("gs18-never-engages", func(t *testing.T) {
		pr := gs18.MustNew(gs18.DefaultParams(1 << 10))
		e := NewCountsEngine(pr, rng.New(3))
		e.RunSteps(200_000)
		if e.react.valid {
			t.Fatalf("skip engaged on GS18, which never has a silent pair")
		}
	})
}

// TestGeomSkip pins the inversion-sampler edge cases the skip loop relies
// on: u = 0 lands on an immediate reactive step, p ≥ 1 forbids skipping,
// u → 1 clamps to the room left in the chunk, and the empirical mean over
// a real rng stream matches the geometric law E[g] = (1−p)/p.
func TestGeomSkip(t *testing.T) {
	if g := geomSkip(0, 0.3, 1000); g != 0 {
		t.Fatalf("geomSkip(0, ·) = %d, want 0", g)
	}
	if g := geomSkip(0.5, 1, 1000); g != 0 {
		t.Fatalf("geomSkip(·, p=1) = %d, want 0", g)
	}
	if g := geomSkip(0.999999999999, 0.5, 7); g != 7 {
		t.Fatalf("geomSkip near u=1 = %d, want clamp to room 7", g)
	}
	if g := geomSkip(0.5, 1e-12, 1000); g != 1000 {
		t.Fatalf("tiny p (median skip ≈ 0.7·10¹²) must clamp to room 1000, got %d", g)
	}
	src := rng.New(42)
	const p = 0.01
	const trials = 200_000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(geomSkip(src.Float64(), p, 1<<30))
	}
	mean := sum / trials
	want := (1 - p) / p
	if mean < want*0.97 || mean > want*1.03 {
		t.Fatalf("empirical mean %.1f, want %.1f ± 3%%", mean, want)
	}
}

// --- satellite: clampHyper coverage ---

// TestClampHyper pins the support clamps: a hypergeometric draw of `sample`
// from good+bad items lives on [max(0, sample−bad), min(good, sample)].
func TestClampHyper(t *testing.T) {
	cases := []struct {
		k, good, bad, sample, want int64
	}{
		{5, 10, 10, 8, 5},    // interior value untouched
		{-3, 10, 10, 8, 0},   // below zero, lo = −2 ⇒ clamp to 0
		{1, 10, 4, 8, 4},     // below lo = sample − bad = 4
		{99, 10, 10, 8, 8},   // above sample
		{7, 5, 10, 8, 5},     // above good
		{0, 10, 0, 8, 8},     // bad = 0 forces k = sample
		{12, 10, 10, 20, 10}, // sample = everything: k = good exactly
	}
	for _, c := range cases {
		if got := clampHyper(c.k, c.good, c.bad, c.sample); got != c.want {
			t.Fatalf("clampHyper(%d, good=%d, bad=%d, sample=%d) = %d, want %d",
				c.k, c.good, c.bad, c.sample, got, c.want)
		}
	}
}
