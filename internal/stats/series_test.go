package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSeriesKeepsAllPointsUnderBudget(t *testing.T) {
	s := NewSeries("x", 16)
	for i := uint64(1); i <= 10; i++ {
		s.Add(i*5, float64(i))
	}
	steps, vals := s.Points()
	if len(steps) != 10 {
		t.Fatalf("kept %d points, want 10", len(steps))
	}
	for i := range steps {
		if steps[i] != uint64(i+1)*5 || vals[i] != float64(i+1) {
			t.Fatalf("point %d = (%d, %g)", i, steps[i], vals[i])
		}
	}
}

func TestSeriesDownsamplesAtFixedMemory(t *testing.T) {
	const budget = 64
	s := NewSeries("x", budget)
	const total = 100_000
	for i := uint64(1); i <= total; i++ {
		s.Add(i, float64(i))
	}
	steps, vals := s.Points()
	if len(steps) > budget {
		t.Fatalf("series grew to %d points over a budget of %d", len(steps), budget)
	}
	if len(steps) < budget/4 {
		t.Fatalf("series over-compacted to %d points", len(steps))
	}
	// Steps strictly increasing, values consistent, last sample retained.
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			t.Fatalf("steps not increasing at %d: %d after %d", i, steps[i], steps[i-1])
		}
	}
	for i := range steps {
		if vals[i] != float64(steps[i]) {
			t.Fatalf("value mismatch at %d: step %d value %g", i, steps[i], vals[i])
		}
	}
	if steps[len(steps)-1] != total {
		t.Fatalf("last sample lost: final step %d, want %d", steps[len(steps)-1], total)
	}
}

func TestSeriesIgnoresDuplicateStep(t *testing.T) {
	s := NewSeries("x", 8)
	s.Add(10, 1)
	s.Add(10, 2) // probe boundary + final fire coincide: one point, latest value
	steps, vals := s.Points()
	if len(steps) != 1 || vals[0] != 2 {
		t.Fatalf("duplicate step handling broken: %v %v", steps, vals)
	}
}

func TestSeriesDeterministic(t *testing.T) {
	run := func() ([]uint64, []float64) {
		s := NewSeries("x", 32)
		for i := uint64(1); i <= 5000; i++ {
			s.Add(i*3, float64(i%17))
		}
		return s.Points()
	}
	s1, v1 := run()
	s2, v2 := run()
	for i := range s1 {
		if s1[i] != s2[i] || v1[i] != v2[i] {
			t.Fatal("identical Add sequences produced different series")
		}
	}
}

func TestCollectorAndCSV(t *testing.T) {
	c := NewCollector(16, "leaders", "states")
	c.Add(100, 5, 3)
	c.Add(200, 2, 4)
	c.Add(250, 1, 4)
	if got := c.Get("states"); got == nil || got.Name != "states" {
		t.Fatal("Get broken")
	}
	if c.Get("missing") != nil {
		t.Fatal("Get must return nil for unknown names")
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, c.Series...); err != nil {
		t.Fatal(err)
	}
	want := "step,leaders,states\n100,5,3\n200,2,4\n250,1,4\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestCollectorArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	NewCollector(8, "a", "b").Add(1, 1.0)
}

func TestWriteSeriesCSVRejectsMisaligned(t *testing.T) {
	a := NewSeries("a", 8)
	b := NewSeries("b", 8)
	a.Add(1, 1)
	a.Add(2, 2)
	b.Add(1, 1)
	if err := WriteSeriesCSV(&bytes.Buffer{}, a, b); err == nil {
		t.Fatal("misaligned series must be rejected")
	}
}

func TestAggregateOnGrid(t *testing.T) {
	// Two trials of a decaying leader count that stop at different steps.
	a := NewSeries("leaders", 64)
	a.Add(0, 10)
	a.Add(100, 2)
	a.Add(200, 1) // converged at 200, stays 1
	b := NewSeries("leaders", 64)
	b.Add(0, 10)
	b.Add(100, 6)
	b.Add(400, 1)
	g := AggregateOnGrid([]*Series{a, b}, 5)
	if len(g.Steps) != 5 || g.Steps[0] != 0 || g.Steps[4] != 400 {
		t.Fatalf("grid steps %v", g.Steps)
	}
	if g.Mean[0] != 10 || g.Min[0] != 10 || g.Max[0] != 10 {
		t.Fatalf("grid origin: mean %g min %g max %g", g.Mean[0], g.Min[0], g.Max[0])
	}
	// At step 100 both trials are observed exactly: (2+6)/2 = 4.
	if g.Steps[1] != 100 || g.Mean[1] != 4 || g.Min[1] != 2 || g.Max[1] != 6 {
		t.Fatalf("grid at 100: %+v", g)
	}
	// At step 400, trial a carries its final value 1 forward.
	if g.Mean[4] != 1 {
		t.Fatalf("final mean %g, want 1 (carry-forward)", g.Mean[4])
	}
	// Interpolation inside b's (100, 400] range at step 300: 6 → 1 linearly
	// is 6 - 5*(200/300); trial a is 1. Just sanity-check monotonicity.
	if !(g.Mean[3] >= g.Mean[4] && g.Mean[3] <= g.Mean[1]) {
		t.Fatalf("mean not monotone: %v", g.Mean)
	}
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "step,mean,min,max\n0,10,10,10\n") {
		t.Fatalf("grid CSV:\n%s", buf.String())
	}
}

func TestAggregateOnGridEmpty(t *testing.T) {
	if g := AggregateOnGrid(nil, 10); len(g.Steps) != 0 {
		t.Fatal("empty input must yield empty summary")
	}
	if g := AggregateOnGrid([]*Series{NewSeries("x", 8)}, 10); len(g.Steps) != 0 {
		t.Fatal("all-empty series must yield empty summary")
	}
}

// TestSeriesDuplicateStepDeduped is the duplicate-step regression: a
// sample offered at the step already recorded must not append a second
// point (it replaces the value), so downstream grid interpolation never
// sees a zero-width segment.
func TestSeriesDuplicateStepDeduped(t *testing.T) {
	s := NewSeries("x", 0)
	s.Add(0, 1)
	s.Add(100, 2)
	s.Add(100, 3) // duplicate step: probe cadence fire + end-of-run fire coinciding
	steps, vals := s.Points()
	if len(steps) != 2 {
		t.Fatalf("duplicate step appended: steps = %v", steps)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] == steps[i-1] {
			t.Fatalf("retained duplicate step %d: %v", steps[i], steps)
		}
	}
	if vals[1] != 3 {
		t.Fatalf("duplicate step must keep the latest value, got %v", vals)
	}
	if _, v, _ := s.Last(); v != 3 {
		t.Fatalf("Last() = %v, want the latest duplicate value 3", v)
	}

	// And the aggregation over such a series stays finite.
	g := AggregateOnGrid([]*Series{s}, 5)
	for i, m := range g.Mean {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("grid point %d is %v (division by a zero-width segment?)", i, m)
		}
	}
}

// TestSampleAtDuplicateStepPair guards the interpolation itself against
// hand-built duplicate-step inputs: no NaN, later sample wins.
func TestSampleAtDuplicateStepPair(t *testing.T) {
	steps := []uint64{0, 50, 50, 100}
	vals := []float64{0, 1, 5, 10}
	got := sampleAt(steps, vals, 50)
	if math.IsNaN(got) {
		t.Fatal("sampleAt returned NaN on a duplicate-step pair")
	}
	for _, step := range []uint64{25, 50, 75} {
		if v := sampleAt(steps, vals, step); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sampleAt(%d) = %v", step, v)
		}
	}
}
