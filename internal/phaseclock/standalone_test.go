package phaseclock

import (
	"math"
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

func TestNewStandaloneValidation(t *testing.T) {
	if _, err := NewStandalone(100, 36, 10); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []struct{ n, g, j int }{
		{1, 36, 1},   // tiny population
		{100, 3, 10}, // odd gamma
		{100, 36, 0}, // empty junta
		{100, 36, 101},
	}
	for _, c := range bad {
		if _, err := NewStandalone(c.n, c.g, c.j); err == nil {
			t.Errorf("NewStandalone(%d, %d, %d) should fail", c.n, c.g, c.j)
		}
	}
}

// initialPop expands c's initial runs into one state per agent.
func initialPop(t *testing.T, c *Standalone) []uint32 {
	t.Helper()
	states, ends, err := sim.InitRuns(c)
	if err != nil {
		t.Fatal(err)
	}
	var pop []uint32
	for k, s := range states {
		for int64(len(pop)) < ends[k] {
			pop = append(pop, s)
		}
	}
	return pop
}

func TestStandalonePacking(t *testing.T) {
	c, _ := NewStandalone(10, 36, 2)
	pop := initialPop(t, c)
	for i, s := range pop[:2] {
		if !c.IsJunta(s) || c.Phase(s) != 0 || c.Rounds(s) != 0 {
			t.Fatalf("junta init state of agent %d broken: %x", i, s)
		}
	}
	for i, s := range pop[2:] {
		if c.IsJunta(s) || c.Phase(s) != 0 {
			t.Fatalf("follower init state of agent %d broken: %x", i+2, s)
		}
	}
}

func TestStandaloneDeltaPreservesJuntaFlag(t *testing.T) {
	c, _ := NewStandalone(10, 12, 2)
	pop := initialPop(t, c)
	junta, follower := pop[0], pop[9]
	for i := 0; i < 100; i++ {
		junta, _ = c.Delta(junta, follower)
		follower, _ = c.Delta(follower, junta)
		if !c.IsJunta(junta) || c.IsJunta(follower) {
			t.Fatal("junta flag must never change")
		}
	}
}

func TestStandaloneClockTicks(t *testing.T) {
	// Two junta agents alone tick each other around the cycle.
	c, _ := NewStandalone(2, 12, 2)
	pop := initialPop(t, c)
	a, b := pop[0], pop[1]
	for i := 0; i < 200; i++ {
		a, _ = c.Delta(a, b)
		b, _ = c.Delta(b, a)
	}
	if c.Rounds(a) == 0 || c.Rounds(b) == 0 {
		t.Fatalf("clock never wrapped: rounds %d/%d", c.Rounds(a), c.Rounds(b))
	}
}

// TestStandaloneSynchrony is the empirical heart of Theorem 3.2: with a
// junta of size ~n^0.7 the whole population completes rounds in lockstep —
// at any moment all agents' round counters span at most 2 values, and round
// lengths concentrate around Θ(n log n) interactions.
func TestStandaloneSynchrony(t *testing.T) {
	if testing.Short() {
		t.Skip("synchrony experiment is long")
	}
	n := 4096
	junta := int(math.Pow(float64(n), 0.7))
	c, err := NewStandalone(n, 36, junta)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRunner(c, rng.New(2024))

	// Let the clock run for 30 expected rounds and sample synchrony.
	nlogn := float64(n) * math.Log(float64(n))
	total := uint64(40 * nlogn)
	sampleEvery := uint64(n)
	worstSpread := 0
	for done := uint64(0); done < total; done += sampleEvery {
		r.RunSteps(sampleEvery)
		minR, maxR := 1<<30, 0
		for _, s := range r.Population() {
			rounds := c.Rounds(s)
			if rounds < minR {
				minR = rounds
			}
			if rounds > maxR {
				maxR = rounds
			}
		}
		if spread := maxR - minR; spread > worstSpread {
			worstSpread = spread
		}
	}
	if worstSpread > 1 {
		t.Fatalf("round counters diverged by %d; Theorem 3.2 synchrony violated", worstSpread)
	}

	// The population completed some rounds, and not absurdly many: the
	// round length must be Ω(n) and O(n log n · const).
	minRounds := 1 << 30
	for _, s := range r.Population() {
		if rr := c.Rounds(s); rr < minRounds {
			minRounds = rr
		}
	}
	if minRounds < 3 {
		t.Fatalf("only %d rounds in %d interactions; clock too slow", minRounds, total)
	}
	perRound := float64(total) / float64(minRounds)
	if perRound < float64(n) {
		t.Fatalf("round length %.0f below n; clock unrealistically fast", perRound)
	}
	if perRound > 40*nlogn {
		t.Fatalf("round length %.0f far above n log n", perRound)
	}
}

// TestStandaloneClockSpanRegression pins the PR 3 tearing signature away
// at the million-agent scale: with the derived Γ(n) = 40 at n = 2²⁰ and a
// junta of size n^0.7, the bulk (99%-mass) phase span measured through
// census probes must stay under the Γ/2 wrap window once the clock has
// left phase 0 — the regime where a too-small Γ decoheres. The run covers
// several epidemic times past the spin-up, long enough for the spread to
// reach its steady state.
func TestStandaloneClockSpanRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~6·10⁷ dense interactions at n=2²⁰")
	}
	n := 1 << 20
	gamma := DefaultGamma(n)
	if gamma != 40 {
		t.Fatalf("derived Γ(2²⁰) = %d, want 40", gamma)
	}
	junta := int(math.Pow(float64(n), 0.7))
	c, err := NewStandalone(n, gamma, junta)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(c, rng.New(2026), sim.BackendDense)
	if err != nil {
		t.Fatal(err)
	}
	meter := NewSpanMeter(gamma)
	probe := func(step uint64, v sim.CensusView) {
		meter.Begin()
		v.VisitStates(func(s uint32, count int64) { meter.Add(uint8(s&phaseMask), count) })
		meter.End()
	}
	if err := sim.AddProbe(eng, probe, uint64(n)); err != nil {
		t.Fatal(err)
	}
	// ~4 epidemic times (2·n·ln n each): the front laps the cycle more
	// than once, so a wrap-window failure would have had its chance.
	eng.RunSteps(uint64(8 * float64(n) * math.Log(float64(n))))
	if meter.MaxBulk() >= gamma/2 {
		t.Fatalf("bulk phase span %d reached the Γ/2 window %d: the tearing signature is back",
			meter.MaxBulk(), gamma/2)
	}
	if meter.MaxBulk() == 0 {
		t.Fatal("probes measured no phases; instrumentation broken")
	}
}

func TestStandaloneNeverStabilizes(t *testing.T) {
	c, _ := NewStandalone(16, 12, 4)
	if c.Stable([]int64{16, 0}) {
		t.Fatal("clock must never report stability")
	}
	pop := initialPop(t, c)
	if c.Leader(pop[0]) {
		t.Fatal("clock has no leaders")
	}
	if c.Name() == "" {
		t.Fatal("name must be set")
	}
	if c.NumClasses() != 2 || c.Class(pop[0]) != 1 || c.Class(pop[10]) != 0 {
		t.Fatal("census classes broken")
	}
}

func TestStandaloneRoundCounterSaturates(t *testing.T) {
	c, _ := NewStandalone(2, 4, 2)
	// Drive one agent to the round-counter cap.
	pop := initialPop(t, c)
	s, peer := pop[0], pop[1]
	for i := 0; i < (roundMask+8)*4; i++ {
		s, _ = c.Delta(s, peer)
		peer, _ = c.Delta(peer, s)
	}
	if c.Rounds(s) > roundMask {
		t.Fatalf("round counter overflowed: %d", c.Rounds(s))
	}
}
