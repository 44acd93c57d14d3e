// Command leaderelect runs one registered protocol and reports the
// outcome: a leader election (the default gsu19) or any scenario protocol
// from the unified registry.
//
// Usage:
//
//	leaderelect -n 100000 -alg gsu19 -seed 42 -v
//	leaderelect -alg list            # print the protocol registry
//	leaderelect -n 100000 -alg clockedmajority
//
// With -v it prints a census timeline: the sub-population sizes (coins,
// inhibitors, active/passive/withdrawn candidates) sampled over the run,
// which makes the three epochs of the paper visible in the terminal.
// -v is dense-only (it reads agent states); -probe-interval records a
// backend-agnostic census timeline (leader count, occupied states) through
// the probe pipeline instead — it works on the counts backend at n = 10⁸
// too — and -series exports it as CSV:
//
//	leaderelect -n 100000000 -alg gs18 -backend counts \
//	    -probe-interval 100000000 -series gs18_1e8.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"popelect"
	"popelect/internal/cliflags"
	"popelect/internal/core"
	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit code: 0 on
// success, 1 when a run fails, 2 for a rejected command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leaderelect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 10000, "population size")
		alg       = fs.String("alg", "gsu19", "protocol name from the registry, or 'list' to print it")
		gamma     = fs.Int("gamma", 0, "phase clock resolution Γ (0 = derived Γ(n): next even ≥ 2·log₂ n, floor 36)")
		phi       = fs.Int("phi", 0, "coin level cap Φ (0 = default)")
		psi       = fs.Int("psi", 0, "drag range Ψ (0 = default)")
		verbose   = fs.Bool("v", false, "print a census timeline (gsu19 only; forces the dense backend)")
		probe     = fs.Uint64("probe-interval", 0, "record a census sample (leaders, occupied states) every N interactions; works on every backend")
		series    = fs.String("series", "", "write the recorded census timeline as CSV to this path (requires -probe-interval)")
		ckpt      = fs.String("checkpoint", "", "snapshot the engine to this file (atomically) about every -checkpoint-every interactions; trials > 1 append a .trialT suffix")
		ckptEvery = fs.Uint64("checkpoint-every", 0, "checkpoint cadence in interactions (0 with -checkpoint = n)")
		resume    = fs.Bool("resume", false, "restore from the -checkpoint file before running; a missing file starts fresh, so a killed run can be relaunched with the same command line and finishes byte-identically")
	)
	f := cliflags.Register(fs, 1, 1)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "leaderelect:", err)
		return code
	}

	if *alg == "list" {
		printRegistry(stdout, *n)
		return 0
	}
	entry, ok := protocols.Lookup(*alg)
	if !ok {
		return fail(2, fmt.Errorf("unknown protocol %q (try -alg list)", *alg))
	}
	if _, err := f.Config(); err != nil {
		return fail(2, err)
	}
	if *series != "" && *probe == 0 {
		return fail(2, errors.New("-series requires -probe-interval"))
	}
	if (*resume || *ckptEvery > 0) && *ckpt == "" {
		return fail(2, errors.New("-resume/-checkpoint-every require -checkpoint"))
	}
	if *ckpt != "" && *verbose {
		return fail(2, errors.New("-v and -checkpoint are mutually exclusive"))
	}
	if *verbose && (*probe > 0 || *series != "") {
		// The verbose path prints its own dense-only timeline and would
		// silently drop the probe flags; make the conflict explicit.
		return fail(2, errors.New("-v and -probe-interval/-series are mutually exclusive"))
	}
	stop, err := f.Profile()
	if err != nil {
		return fail(2, err)
	}
	defer stop()

	if *verbose && *alg == "gsu19" {
		if err := runVerbose(stdout, *n, f.Seed, *gamma, *phi, *psi); err != nil {
			return fail(1, err)
		}
		return 0
	}

	loggedWorkers := false
	for t := 0; t < f.Trials; t++ {
		opts := []popelect.Option{popelect.WithSeed(f.Seed + uint64(t)), popelect.WithBackend(f.Backend),
			popelect.WithBatchPolicy(f.Batch), popelect.WithBatchEps(f.BatchEps),
			popelect.WithWorkers(f.Workers)}
		if f.Shards > 1 {
			opts = append(opts, popelect.WithShards(f.Shards))
			if f.Migration >= 0 {
				opts = append(opts, popelect.WithMigrationRate(f.Migration))
			}
		}
		if *gamma != 0 {
			opts = append(opts, popelect.WithGamma(*gamma))
		}
		if *phi != 0 {
			opts = append(opts, popelect.WithPhi(*phi))
		}
		if *psi != 0 {
			opts = append(opts, popelect.WithPsi(*psi))
		}
		if *probe > 0 {
			opts = append(opts, popelect.WithCensusTimeline(*probe))
		}
		if f.Churn != "" || f.Corrupt != "" || f.Bias != "" {
			opts = append(opts, popelect.WithScenario(f.Churn, f.Corrupt, f.Bias))
		}
		if *ckpt != "" {
			path := *ckpt
			if f.Trials > 1 {
				path = fmt.Sprintf("%s.trial%d", path, t)
			}
			every := *ckptEvery
			if every == 0 {
				every = uint64(*n)
			}
			opts = append(opts, popelect.WithCheckpoint(path, every))
			if *resume {
				opts = append(opts, popelect.WithResume(path))
			}
		}
		elect := popelect.ElectWith
		if !entry.Elects {
			// Scenario protocols stabilize without electing; skip the
			// one-leader verification.
			elect = popelect.Stabilize
		}
		res, err := elect(popelect.Algorithm(*alg), *n, opts...)
		if err != nil {
			return fail(1, err)
		}
		if !loggedWorkers && (f.Workers > 1 || f.Shards > 1) {
			// The engine clamps its fan-out to the census width (and short
			// batches run serially), so the realized concurrency can sit
			// well below the request — report it once so capacity numbers
			// aren't misread.
			requested := f.Workers
			if f.Shards > 1 {
				requested *= f.Shards
			}
			fmt.Fprintf(stderr, "leaderelect: effective workers %d (requested %d)\n",
				res.EffectiveWorkers, requested)
			loggedWorkers = true
		}
		if len(res.Timeline) > 0 {
			printTimeline(stdout, res.Timeline, *n)
			if *series != "" {
				path := *series
				if f.Trials > 1 {
					path = fmt.Sprintf("%s.trial%d", path, t)
				}
				if err := writeTimelineCSV(path, res.Timeline); err != nil {
					return fail(1, err)
				}
				fmt.Fprintf(stdout, "census series written to %s\n", path)
			}
		}
		switch {
		case res.LeaderID >= 0:
			fmt.Fprintf(stdout, "trial %d: leader = agent %d after %d interactions (parallel time %.1f)\n",
				t, res.LeaderID, res.Interactions, res.ParallelTime)
		case entry.Elects:
			// The counts backend elects an anonymous leader.
			fmt.Fprintf(stdout, "trial %d: unique leader elected after %d interactions (parallel time %.1f)\n",
				t, res.Interactions, res.ParallelTime)
		default:
			fmt.Fprintf(stdout, "trial %d: %s stabilized after %d interactions (parallel time %.1f)\n",
				t, *alg, res.Interactions, res.ParallelTime)
		}
	}
	return 0
}

// printRegistry renders the protocol registry as a table: the single
// source of protocol names, capabilities and defaults (-alg list).
func printRegistry(out io.Writer, n int) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "name\tprotocol\tpaper states\tpaper time\telects\tbackends\tstates@n\tΓ(n)")
	for _, e := range protocols.All() {
		size := n
		if e.MaxN != 0 && size > e.MaxN {
			size = e.MaxN
		}
		backends, states := "dense", "—"
		switch inst, err := e.New(size, protocols.Overrides{}); {
		case err != nil:
			backends = "error: " + err.Error()
		case inst.Enumerable():
			backends = "dense+counts"
			states = fmt.Sprintf("%d", inst.StateCount())
		}
		gamma := "—"
		if g := e.DefaultGamma(size, protocols.Overrides{}); g != 0 {
			gamma = fmt.Sprintf("%d", g)
		}
		elects := "no"
		if e.Elects {
			elects = "yes"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			e.Name, e.Display, e.PaperStates, e.PaperTime, elects, backends, states, gamma)
	}
	w.Flush()
	fmt.Fprintf(out, "\nstates@n: generated enumeration size at n=%d (size-capped protocols at their cap)\n", n)
	fmt.Fprintln(out, "see README 'Protocols' for the composing-a-new-protocol walkthrough")
}

// printTimeline renders a recorded census timeline as a table.
func printTimeline(out io.Writer, tl []popelect.CensusPoint, n int) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "par.time\tleaders\toccupied states")
	for _, p := range tl {
		fmt.Fprintf(w, "%.1f\t%d\t%d\n", float64(p.Step)/float64(n), p.Leaders, p.States)
	}
	w.Flush()
}

// writeTimelineCSV exports a timeline through the stats series layer.
func writeTimelineCSV(path string, tl []popelect.CensusPoint) error {
	col := stats.NewCollector(0, "leaders", "occupied_states")
	for _, p := range tl {
		col.Add(p.Step, float64(p.Leaders), float64(p.States))
	}
	return stats.WriteSeriesCSVFile(path, col.Series...)
}

func runVerbose(out io.Writer, n int, seed uint64, gamma, phi, psi int) error {
	params := core.DefaultParams(n)
	if gamma != 0 {
		params.Gamma = gamma
	}
	if phi != 0 {
		params.Phi = phi
	}
	if psi != 0 {
		params.Psi = psi
	}
	pr, err := core.New(params)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "protocol %s on n=%d agents (seed %d)\n\n", pr.Name(), n, seed)
	r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(seed))

	var stats core.RuleStats
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI core.State) {
		stats.Record(oldR, oldI, newR, newI)
	})

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "par.time\tuninit\tcoins\tinhib\tdead\tactive\tpassive\twithdrawn\tjunta\tstage")
	sample := uint64(n) * 8
	r.AddObserver(func(step uint64, pop []core.State) {
		c := r.Counts()
		stage := pr.MinLeaderCnt(pop)
		fmt.Fprintf(w, "%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			float64(step)/float64(n),
			c[core.ClassZero]+c[core.ClassX], c[core.ClassC], c[core.ClassI], c[core.ClassD],
			c[core.ClassActive], c[core.ClassPassive], c[core.ClassWithdrawn],
			pr.JuntaSize(pop), stage)
	}, sample)
	res := r.Run()
	w.Flush()
	fmt.Fprintln(out)
	if !res.Converged {
		return fmt.Errorf("did not stabilize within %d interactions", res.Interactions)
	}
	fmt.Fprintf(out, "leader = agent %d after %d interactions (parallel time %.1f)\n\n",
		res.LeaderID, res.Interactions, res.ParallelTime())
	fmt.Fprintln(out, "rule firings:")
	if _, err := stats.WriteTo(out); err != nil {
		return err
	}
	return nil
}
