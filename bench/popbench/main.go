// Command popbench is the repository's benchmark: it measures the
// simulator's engines from outside, through the public API of internal/*,
// on the workloads BENCHMARK.json names.
//
// One run measures one workload:
//
//	popbench -workload gs18-exact-64k -seed 1 -seconds 10 -trace 0
//
// Trial k of the run uses seed+k. Each trial builds its engine through the
// protocol registry, times a fixed slab of interactions from the initial
// configuration, checks the census, then runs the election to the end and
// checks that it stabilized with one leader. Each workload fixes its number
// of trials for a 10-second run; -seconds scales that count, never the
// measured speed, so two commits always do the same work. The last line of
// standard output is the result: {"correct", "attempted", "failed",
// "metrics"}; the line before it holds per-trial detail. With -trace 1 the
// run adds one traced trial and reports the per-layer metrics instead,
// writing spans and the slab's CPU profile to -trace-dir.
//
//	popbench -record results/<commit>.json -commit <commit>
//	popbench -compare A.json B.json
//
// -record runs every workload in child processes, five untraced runs for
// each of seeds 1 and 7 and one traced run, and writes a result set;
// -compare applies BENCHMARK.json's bounds to two result sets.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line before the result: what each trial measured, for
// result sets and for reading a run by eye.
type detail struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Setups    []setupSample `json:"setup_samples"`
	Trials    []trialResult `json:"trials"`
	HostRefNs [2]float64    `json:"host_ref_ns"` // start, end
	Traced    []string      `json:"traced_errors,omitempty"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Uint64("seed", 1, "seed of the first trial")
		secs      = flag.Float64("seconds", 10, "run length: scales the workload's trial count for 10 seconds")
		trace     = flag.Int("trace", 0, "1: add a traced trial and report the per-layer metrics")
		traceDir  = flag.String("trace-dir", filepath.Join(".bench_build", "popbench-trace"), "where a traced run writes spans.json and cpu.pprof")
		benchJSON = flag.String("benchmark", "BENCHMARK.json", "benchmark definition, for the bounds of -compare and -record")
		compare   = flag.Bool("compare", false, "compare two result sets given as arguments: A.json B.json")
		record    = flag.String("record", "", "run every workload in child processes and write a result set here")
		commit    = flag.String("commit", "", "with -record: the commit measured")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two result sets: A.json B.json"))
		}
		def, err := loadBenchmark(*benchJSON)
		if err != nil {
			fail(err)
		}
		worse, err := compareFiles(os.Stdout, def, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
	case *record != "":
		def, err := loadBenchmark(*benchJSON)
		if err != nil {
			fail(err)
		}
		if err := recordSet(def, *record, *commit, *secs); err != nil {
			fail(err)
		}
	default:
		w, err := lookupWorkload(*name)
		if err != nil {
			fail(err)
		}
		res, det, err := run(w, *seed, *secs, *trace == 1, filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d", w.name, *seed)))
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(map[string]detail{"detail": det}); err != nil {
			fail(err)
		}
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "popbench:", err)
	os.Exit(2)
}

// run measures workload w: its trials, each preceded by its share of the
// setup_s samples, then (traced) one traced trial. It reports the end-to-end
// metrics, or the per-layer metrics when traced.
func run(w workload, seed uint64, secs float64, traced bool, traceDir string) (result, detail, error) {
	det := detail{Workload: w.name, Seed: seed}
	det.HostRefNs[0] = hostRefNs()
	tp, err := w.typed(w.n)
	if err != nil {
		return result{}, det, err
	}
	allowed := allowedWords(tp)
	trials := w.runTrials(secs)
	for k := range trials {
		// The setup_s samples are spread over the run so that their median
		// does not rest on one moment of a shared host. Collecting garbage
		// before each sample and trial keeps earlier engines out of the
		// peak RSS.
		more := setupSamples / trials
		if k < setupSamples%trials {
			more++
		}
		for range more {
			s, err := w.sampleSetup(seed + uint64(k))
			if err != nil {
				return result{}, det, err
			}
			det.Setups = append(det.Setups, s)
		}
		runtime.GC()
		tr := runTrial(w, allowed, seed+uint64(k))
		det.Trials = append(det.Trials, tr)
		for _, e := range tr.Errors {
			fmt.Fprintf(os.Stderr, "popbench: %s seed %d: %s\n", w.name, tr.Seed, e)
		}
	}
	res := result{Attempted: len(det.Trials), Metrics: map[string]metric{}}
	var rates, allocs, gcShares, setups, newS, engS []float64
	for _, tr := range det.Trials {
		if len(tr.Errors) > 0 {
			res.Failed++
		}
		rates = append(rates, tr.MinterPerS)
		allocs = append(allocs, tr.AllocMBPerGinter)
		gcShares = append(gcShares, tr.GCCPUShare)
	}
	for _, s := range det.Setups {
		setups, newS, engS = append(setups, s.total()), append(newS, s.NewS), append(engS, s.EngineNewS)
	}
	want, got := endToEnd, map[string]float64{
		"minter_per_s": median(rates),
		"setup_s":      median(setups),
		// Before any election is finished (see trialResult.PeakRSSMB).
		"peak_rss_mb": det.Trials[0].PeakRSSMB,
	}
	if traced {
		runtime.GC()
		m, tracedRate, errs, err := tracedRun(w, tp, allowed, seed, traceDir)
		if err != nil {
			return result{}, det, err
		}
		res.Attempted++
		if len(errs) > 0 {
			res.Failed++
			det.Traced = errs
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "popbench: %s traced seed %d: %s\n", w.name, seed, e)
			}
		}
		// Trial 0 ran the same seed untraced, so the ratio compares like inputs.
		m["trace.overhead"] = 1 - tracedRate/det.Trials[0].MinterPerS
		m["protocols.new_s"] = median(newS)
		m["sim.engine_new_s"] = median(engS)
		m["runtime.alloc_mb_per_ginter"] = median(allocs)
		m["runtime.gc_cpu_share"] = median(gcShares)
		want, got = perLayer, m
	}
	det.HostRefNs[1] = hostRefNs()
	if traced {
		got["host.ref_ns"] = (det.HostRefNs[0] + det.HostRefNs[1]) / 2
	}
	res.Correct = res.Failed == 0
	for _, md := range want {
		v, ok := got[md.Name]
		if !ok {
			return result{}, det, fmt.Errorf("workload %s did not measure %s", w.name, md.Name)
		}
		res.Metrics[md.Name] = metric{Value: v, Unit: md.Unit}
	}
	return res, det, nil
}
