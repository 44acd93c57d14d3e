// Montecarlo: estimate the distribution of the protocol's election time.
// The paper's bound is O(log n · log log n) in expectation but O(log² n)
// only with high probability — the gap is visible here as a right tail
// produced by void rounds and drag-tick waits.
package main

import (
	"fmt"
	"log"
	"math"

	"popelect/internal/core"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

func main() {
	const (
		n      = 4096
		trials = 40
	)
	pr, err := core.New(core.DefaultParams(n))
	if err != nil {
		log.Fatal(err)
	}
	rs, err := sim.RunTrials(
		func(int) sim.Protocol { return pr.Words() },
		sim.TrialConfig{Trials: trials, Seed: 1234},
	)
	if err != nil {
		log.Fatal(err)
	}
	if !sim.AllConverged(rs) {
		log.Fatalf("only %d/%d trials converged", sim.ConvergedCount(rs), trials)
	}
	times := sim.ParallelTimes(rs)
	s := stats.Summarize(times)
	fmt.Printf("election time over %d trials at n=%d (parallel time):\n\n", trials, n)
	fmt.Printf("  mean %.0f   median %.0f   p10 %.0f   p90 %.0f   max %.0f\n\n",
		s.Mean, s.Median, s.P10, s.P90, s.Max)

	h := stats.NewHistogram(s.Min*0.9, s.Max*1.05, 12)
	for _, t := range times {
		h.Add(t)
	}
	fmt.Print(h.Render(40))

	ln := math.Log(n)
	fmt.Printf("\nnormalized: mean/(ln n · ln ln n) = %.1f   p90/ln²n = %.1f\n",
		s.Mean/(ln*math.Log(ln)), s.P90/(ln*ln))
	fmt.Println("the right tail is the Las Vegas price: void rounds and drag-tick")
	fmt.Println("waits stretch unlucky runs, but every run ends with one leader.")
}
