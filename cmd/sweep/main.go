// Command sweep explores the protocol's tunable parameters: the phase-clock
// resolution Γ, the coin-level cap Φ, and the drag range Ψ. It quantifies
// the trade-offs DESIGN.md describes: larger Γ slows every round but keeps
// rounds synchronized; Φ controls how much the fast-elimination epoch cuts;
// Ψ bounds how long the drag counter can pace passive cleanup.
//
// Usage:
//
//	sweep -what gamma -n 4096 -trials 5
//	sweep -what phi   -n 16384
//	sweep -what psi   -n 16384
//	sweep -what gamma -series-dir series   # + mean leader-count trajectory CSV per value
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"

	"popelect/internal/cliflags"
	"popelect/internal/core"
	"popelect/internal/phaseclock"
	"popelect/internal/sim"
	"popelect/internal/stats"
	"popelect/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit code: 0 on
// success, 1 when a run fails, 2 for a rejected command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		what     = fs.String("what", "gamma", "parameter to sweep: gamma, phi, psi")
		n        = fs.Int("n", 4096, "population size")
		probe    = fs.Uint64("probe-interval", 0, "census-probe cadence for trajectory recording (0 = n/4)")
		sdir     = fs.String("series-dir", "", "write a mean leader-count trajectory CSV per swept value into this directory")
		storeDir = fs.String("store", "", "content-addressed result store directory: sweep cells already computed under the same key (parameters, n, trials, seed, backend, policy) are reused instead of re-simulated")
	)
	f := cliflags.Register(fs, 1, 5)
	fs.Lookup("gamma").Usage = "phase-clock resolution Γ override while sweeping phi/psi (0 = derived Γ(n); ignored by -what gamma)"
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "sweep:", err)
		return code
	}

	stop, err := f.Profile()
	if err != nil {
		return fail(2, err)
	}
	defer stop()
	tc, err := f.Config()
	if err != nil {
		return fail(2, err)
	}
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			return fail(2, err)
		}
	}

	var values []int
	mutate := func(p *core.Params, v int) {}
	switch *what {
	case "gamma":
		// Bracket the derived default Γ(n) with the legacy fixed values.
		values = []int{16, 24, 36, 48, 64}
		if d := phaseclock.DefaultGamma(*n); !slices.Contains(values, d) {
			values = append(values, d)
			slices.Sort(values)
		}
		mutate = func(p *core.Params, v int) { p.Gamma = v }
	case "phi":
		values = []int{1, 2, 3, 4}
		mutate = func(p *core.Params, v int) { p.Phi = v }
	case "psi":
		values = []int{2, 4, 6, 8}
		mutate = func(p *core.Params, v int) { p.Psi = v }
	default:
		return fail(2, fmt.Errorf("unknown parameter %q", *what))
	}

	every := *probe
	if every == 0 {
		every = uint64(*n) / 4
		if every == 0 {
			every = 1
		}
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\tconverged\tpar.time mean\tp90\tmax\tt/(ln·lnln)\n", *what)
	lnn := math.Log(float64(*n))
	for _, v := range values {
		params := core.DefaultParams(*n)
		if f.Gamma != 0 && *what != "gamma" {
			params.Gamma = f.Gamma
		}
		mutate(&params, v)
		pr, err := core.New(params)
		if err != nil {
			fmt.Fprintf(w, "%d\tinvalid: %v\t\t\t\t\n", v, err)
			continue
		}
		// When trajectories are requested, record a per-trial leader-count
		// series through the probe pipeline and aggregate across trials.
		var probes []sim.TrialProbe
		perTrial := make([]*stats.Series, tc.Trials)
		if *sdir != "" {
			for i := range perTrial {
				perTrial[i] = stats.NewSeries("leaders", 0)
			}
			probes = append(probes, sim.TrialProbe{
				Every: every,
				Make: func(trial int) sim.Probe {
					return func(step uint64, cv sim.CensusView) {
						perTrial[trial].Add(step, float64(cv.Leaders()))
					}
				},
			})
		}
		// The cell's cache key: everything that determines the trial
		// trajectories and their observation. A hit substitutes stored
		// results (and, when trajectories are requested, stored per-trial
		// series) for the simulation.
		extra := fmt.Sprintf("%s=%d", *what, v)
		if !tc.Perturb.IsZero() {
			// The perturbation changes the trajectory law, so its full
			// fingerprint is part of the cache identity.
			extra += ";" + tc.Perturb.Fingerprint()
		}
		cell := tc
		cell.Seed = tc.Seed + uint64(v)
		resKey := store.TrialKey("sweep", "gsu19", *n, cell)
		resKey.Gamma = f.Gamma
		resKey.Extra = extra
		serKey := resKey
		serKey.Kind = "sweep-series"
		serKey.ProbeEvery = every
		var rs []sim.Result
		cached := false
		if st != nil {
			crs, hit, err := st.GetResults(resKey)
			if err != nil {
				return fail(1, err)
			}
			if hit && len(crs) != cell.Trials {
				return fail(1, fmt.Errorf("store entry %s holds %d results for %d trials", resKey.Hash(), len(crs), cell.Trials))
			}
			if hit && *sdir == "" {
				rs, cached = crs, true
			} else if hit {
				cser, hit2, err := st.GetSeries(serKey)
				if err != nil {
					return fail(1, err)
				}
				if hit2 && len(cser) == cell.Trials {
					copy(perTrial, cser)
					rs, cached = crs, true
				}
			}
		}
		if !cached {
			rs, err = sim.RunTrialsProbed(func(int) sim.Protocol { return pr.Words() },
				cell, probes...)
			if err != nil {
				return fail(1, err)
			}
			if st != nil {
				if err := st.PutResults(resKey, rs); err != nil {
					return fail(1, err)
				}
				if *sdir != "" {
					if err := st.PutSeries(serKey, perTrial); err != nil {
						return fail(1, err)
					}
				}
			}
		}
		if *sdir != "" {
			// Merge the per-trial series into one mean/min/max trajectory.
			g := stats.AggregateOnGrid(perTrial, 256)
			path := filepath.Join(*sdir, fmt.Sprintf("sweep_%s%d_leaders.csv", *what, v))
			if err := g.WriteCSVFile(path); err != nil {
				return fail(1, err)
			}
		}
		times := sim.ParallelTimes(rs)
		fmt.Fprintf(w, "%d\t%d/%d\t%.0f\t%.0f\t%.0f\t%.1f\n",
			v, sim.ConvergedCount(rs), len(rs),
			stats.Mean(times), stats.Quantile(times, 0.9), stats.Max(times),
			stats.Mean(times)/(lnn*math.Log(lnn)))
	}
	w.Flush()
	if *sdir != "" {
		fmt.Fprintf(stdout, "\nmean leader-count trajectories (per swept value) written to %s/\n", *sdir)
	}
	if st != nil {
		fmt.Fprintf(stderr, "sweep: %s\n", st)
	}
	return 0
}
