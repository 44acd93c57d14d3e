// Command paperbench regenerates the paper's evaluation artifacts — Table 1
// and Figures 1–3 plus the quantitative lemmas and theorems — by
// simulation, printing one text table per artifact.
//
// Usage:
//
//	paperbench                         # run everything at default scale
//	paperbench -exp table1,fig3        # selected experiments
//	paperbench -sizes 1024,4096 -trials 5 -seed 1
//	paperbench -list                   # list experiment ids
//	paperbench -exp scalefigures -backend counts -sizes 100000000 \
//	    -series-dir series             # census trajectories at n=10⁸ (CSV)
//
// The default scale matches EXPERIMENTS.md. Everything runs single-machine;
// trials parallelize over cores.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"popelect/internal/cliflags"
	"popelect/internal/experiments"
	"popelect/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit code: 0 on
// success, 1 when an experiment fails to render, 2 for a rejected command
// line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		sizes    = fs.String("sizes", "", "comma-separated population sizes (default: experiment preset)")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		smoke    = fs.Bool("smoke", false, "tiny configuration for a quick look")
		probe    = fs.Uint64("probe-interval", 0, "census-probe cadence for trajectory experiments, in interactions (0 = per-experiment default)")
		sdir     = fs.String("series-dir", "", "directory where recording experiments (scalefigures, biassweep, clockspan, parscale, resilience) write CSV files (empty = no files)")
		reps     = fs.Int("reps", 1, "timing repetitions per cell in throughput experiments (parscale): mean ± sd over reps")
		storeDir = fs.String("store", "", "content-addressed result store directory: trial batches already computed under the same key are reused instead of re-simulated")
	)
	f := cliflags.Register(fs, 0, 0)
	fs.Lookup("seed").Usage = "base PRNG seed (0 = experiment preset)"
	fs.Lookup("trials").Usage = "trials per measurement point (0 = experiment preset)"
	fs.Lookup("gamma").Usage = "phase-clock resolution Γ override for every clock-carrying protocol (0 = derived Γ(n))"
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "paperbench:", err)
		return code
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintln(stdout, e.ID)
		}
		return 0
	}

	cfg := experiments.DefaultConfig()
	if *smoke {
		cfg = experiments.SmokeConfig()
	}
	if *sizes != "" {
		cfg.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				return fail(2, fmt.Errorf("bad size %q", s))
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	tc, err := f.Config()
	if err != nil {
		return fail(2, err)
	}
	if tc.Trials <= 0 {
		tc.Trials = cfg.Trials
	}
	if tc.Seed == 0 {
		tc.Seed = cfg.Seed
	}
	cfg.TrialConfig = tc
	cfg.ProbeInterval = *probe
	cfg.SeriesDir = *sdir
	cfg.Reps = *reps
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return fail(2, err)
		}
		cfg.Store = st
	}
	stop, err := f.Profile()
	if err != nil {
		return fail(2, err)
	}
	defer stop()
	cfg.Gamma = f.Gamma

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	for _, id := range ids {
		runExp, ok := experiments.Lookup(id)
		if !ok {
			return fail(2, fmt.Errorf("unknown experiment %q (try -list)", id))
		}
		start := time.Now()
		if err := experiments.RenderAll(stdout, runExp(cfg)); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if cfg.Store != nil {
		fmt.Fprintf(stderr, "paperbench: %s\n", cfg.Store)
	}
	return 0
}
