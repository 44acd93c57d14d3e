// Chemistry: population protocols are equivalent to chemical reaction
// networks with unit rates (the paper's motivation cites CCDS14/Dot14).
// This example frames the protocol as a well-mixed solution: molecular
// species (roles) react pairwise, and the trajectory printed below is the
// species census over time — ending with exactly one "leader molecule",
// the catalyst the rest of the computation could be conditioned on.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"popelect/internal/core"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

func main() {
	const n = 30000
	pr, err := core.New(core.DefaultParams(n))
	if err != nil {
		log.Fatal(err)
	}
	r := sim.NewRunner(pr.Words(), rng.New(1862)) // Cayley, 1862

	fmt.Printf("well-mixed solution of %d molecules, species = protocol roles\n", n)
	fmt.Println("reactions: 2·S₀ → X + L   |   2·X → C + I   |   L + L → L + W   | ...")
	fmt.Println()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "time\tS₀+X\tC (coins)\tI (inhibitors)\tL active\tL passive\tL withdrawn\tD")
	r.AddObserver(func(step uint64, pop []uint32) {
		c := r.Counts()
		fmt.Fprintf(w, "%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			float64(step)/n,
			c[core.ClassZero]+c[core.ClassX], c[core.ClassC], c[core.ClassI],
			c[core.ClassActive], c[core.ClassPassive], c[core.ClassWithdrawn], c[core.ClassD])
	}, uint64(n)*24)
	res := r.Run()
	w.Flush()

	if !res.Converged {
		log.Fatalf("no convergence: %+v", res)
	}
	fmt.Printf("\nequilibrium after %.0f time units: exactly one leader molecule (agent %d)\n",
		res.ParallelTime(), res.LeaderID)
	fmt.Println("the census trajectory above is what a CRN simulator would record for this network.")
}
