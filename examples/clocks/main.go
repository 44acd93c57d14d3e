// Clocks: watch the junta-driven phase clock of Section 3 tick. A small
// junta (n^0.7 agents) drags the whole population around the Γ-hour dial;
// the terminal shows the phase distribution as a histogram every few
// sampled moments, plus the round synchrony that Theorem 3.2 promises.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"popelect/internal/phaseclock"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

func main() {
	const n = 8192
	gamma := phaseclock.DefaultGamma(n) // 36 at this n; grows as 2·log₂ n at scale
	junta := int(math.Pow(n, 0.7))
	clock, err := phaseclock.NewStandalone(n, gamma, junta)
	if err != nil {
		log.Fatal(err)
	}
	r := sim.NewRunner(clock, rng.New(2019))

	fmt.Printf("phase clock: n=%d, Γ=%d, junta=%d clock leaders\n\n", n, gamma, junta)
	nln := uint64(float64(n) * math.Log(n))
	for snapshot := 0; snapshot < 12; snapshot++ {
		r.RunSteps(nln / 2)
		hist := make([]int, gamma)
		minRound, maxRound := math.MaxInt32, 0
		for _, s := range r.Population() {
			hist[clock.Phase(s)]++
			rounds := clock.Rounds(s)
			if rounds < minRound {
				minRound = rounds
			}
			if rounds > maxRound {
				maxRound = rounds
			}
		}
		peak := 0
		for _, c := range hist {
			if c > peak {
				peak = c
			}
		}
		var bar strings.Builder
		for ph := 0; ph < gamma; ph++ {
			level := " .:-=+*#%@"[min(9, hist[ph]*10/max(1, peak))]
			bar.WriteByte(byte(level))
		}
		fmt.Printf("t=%5.0f  |%s|  rounds %d..%d\n",
			float64(r.Steps())/n, bar.String(), minRound, maxRound)
	}
	fmt.Println("\neach column is one of the Γ phases; the population mass moves right")
	fmt.Println("and wraps — one wrap per round, all agents within one round of each other.")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
