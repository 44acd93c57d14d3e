// Package experiments regenerates every evaluation artifact of the paper —
// Table 1 and Figures 1–3 — plus the quantitative lemmas behind them
// (Lemmas 4.1, 5.3, 7.1, 7.3, Theorems 3.2 and 8.2) by simulation, printing
// tables whose rows mirror what the paper reports. See EXPERIMENTS.md for
// the recorded paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"popelect/internal/core"
	"popelect/internal/phaseclock"
	"popelect/internal/protocols/gs18"
	"popelect/internal/sim"
	"popelect/internal/store"
)

// Config controls experiment scale. The zero value is unusable; start from
// DefaultConfig or SmokeConfig.
type Config struct {
	// Sizes is the list of population sizes n.
	Sizes []int

	// TrialConfig carries the trial settings cmd/paperbench parses from
	// its shared flags. Trials and Seed give each measurement point's
	// trial count and base seed; Workers bounds concurrent trials (0 =
	// GOMAXPROCS); EngineWorkers caps each counts engine's sampling
	// shards, which matters mainly for the single-engine experiments
	// (scale, scalefigures, resilience) where one large-n run owns the
	// machine. Backend (empty = dense) and Batch (zero =
	// BatchAuto) select the engine of the whole-protocol experiments;
	// thm32 degrades a counts request to auto because its standalone clock
	// protocol has no finite state-space enumeration. Perturb attaches to
	// every trial-based experiment's engines; resilience sweeps its own
	// scenario axes and ignores it.
	sim.TrialConfig

	// Reps is the number of timing repetitions per measurement cell in
	// throughput experiments (parscale): each cell re-times its slab Reps
	// times and reports mean ± sd. 0 or 1 = a single rep.
	Reps int

	// Gamma overrides the phase-clock resolution Γ of every
	// clock-carrying protocol an experiment builds (0 = the derived
	// default, phaseclock.DefaultGamma per population size). The
	// clockspan experiment uses it to reproduce the legacy fixed-Γ
	// tearing; cmd/paperbench exposes it as -gamma.
	Gamma int

	// ProbeInterval overrides the census-probe cadence of trajectory
	// experiments, in interactions (0 = per-experiment default: n/16 for
	// the dense-scale figure/lemma experiments, n for scalefigures).
	ProbeInterval uint64

	// SeriesDir, when nonempty, is the directory where trajectory
	// experiments (scalefigures) write CSV time-series files. Empty
	// disables file output; trajectories are still summarized in tables.
	SeriesDir string

	// Store, when non-nil, is a content-addressed result cache: trial
	// batches whose full configuration hashes to an existing entry are
	// read back instead of re-simulated (sound because engines are
	// deterministic functions of their configuration and seed — see
	// internal/store). Probed batches always run, since a substituted
	// result would silently skip their observations. cmd/paperbench wires
	// it through -store and reports the hit/miss tally once per run.
	Store *store.Store
}

// DefaultConfig returns the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Sizes:       []int{1 << 10, 1 << 12, 1 << 14, 1 << 16},
		TrialConfig: sim.TrialConfig{Trials: 10, Seed: 2019}, // SPAA 2019
	}
}

// SmokeConfig returns a fast configuration for tests.
func SmokeConfig() Config {
	return Config{
		Sizes:       []int{1 << 9, 1 << 10},
		TrialConfig: sim.TrialConfig{Trials: 3, Seed: 7},
	}
}

// Table is a rendered experiment result: a titled grid with footnotes.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; cell count must match Columns.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row with %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text, reporting the first write error
// (a full disk would otherwise truncate the artifact silently).
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for c, col := range t.Columns {
		widths[c] = len([]rune(col))
	}
	for _, row := range t.Rows {
		for c, cell := range row {
			if l := len([]rune(cell)); l > widths[c] {
				widths[c] = l
			}
		}
	}
	pad := func(s string, w int) string {
		return s + strings.Repeat(" ", w-len([]rune(s)))
	}
	header := make([]string, len(t.Columns))
	for c, col := range t.Columns {
		header[c] = pad(col, widths[c])
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "  ")); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for c, cell := range row {
			cells[c] = pad(cell, widths[c])
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, "  ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderAll writes several tables, stopping at the first write error.
func RenderAll(w io.Writer, tables []*Table) error {
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// Registry maps experiment ids to runners, for cmd/paperbench.
type Runner func(Config) []*Table

// All returns the full experiment registry in presentation order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table1", Table1},
		{"fig1", Figure1},
		{"fig2", Figure2},
		{"fig3", Figure3},
		{"lemma41", Lemma41},
		{"lemma53", Lemma53},
		{"lemma71", Lemma71},
		{"lemma73", Lemma73},
		{"thm32", Theorem32},
		{"thm82", Theorem82},
		{"epidemic", Epidemic},
		{"ablation", Ablation},
		{"scale", Scale},
		{"scalefigures", ScaleFigures},
		{"biassweep", BiasSweep},
		{"clockspan", ClockSpan},
		{"parscale", ParScale},
		{"resilience", Resilience},
	}
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// trialKey builds the store key of one trial batch: store.TrialKey plus the
// experiment's Γ override, state tracking and perturbation fingerprint.
func trialKey(cfg Config, kind, protocol string, n int, tc sim.TrialConfig) store.Key {
	k := store.TrialKey(kind, protocol, n, tc)
	k.Gamma = cfg.Gamma
	k.Extra = fmt.Sprintf("track=%t", tc.TrackStates)
	if !tc.Perturb.IsZero() {
		// Perturbations change the trajectory law, so the full fingerprint
		// is part of the cache identity.
		k.Extra += ",pert=" + tc.Perturb.Fingerprint()
	}
	return k
}

// cachedCell runs one measurement cell through cfg.Store: a hit substitutes
// the stored results for the run, a miss runs and stores. A hit holding
// other than key.Trials results is an error. With no store configured it
// just runs.
func cachedCell(cfg Config, key store.Key, run func() ([]sim.Result, error)) ([]sim.Result, error) {
	if cfg.Store == nil {
		return run()
	}
	if rs, ok, err := cfg.Store.GetResults(key); err != nil {
		return nil, err
	} else if ok {
		if len(rs) != key.Trials {
			return nil, fmt.Errorf("experiments: store entry %s holds %d results for %d trials", key.Hash(), len(rs), key.Trials)
		}
		return rs, nil
	}
	rs, err := run()
	if err != nil {
		return nil, err
	}
	if err := cfg.Store.PutResults(key, rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// cachedTrials is cachedCell over sim.RunTrials for experiments that build
// their protocol values directly.
func cachedTrials(cfg Config, kind, protocol string, n int, factory func(int) sim.Protocol, tc sim.TrialConfig) ([]sim.Result, error) {
	return cachedCell(cfg, trialKey(cfg, kind, protocol, n, tc), func() ([]sim.Result, error) {
		return sim.RunTrials(factory, tc)
	})
}

// mustRun unwraps a RunTrials result; experiment configurations are
// validated upstream (CLI flag parsing), so an error here is a bug.
func mustRun(rs []sim.Result, err error) []sim.Result {
	if err != nil {
		panic(err)
	}
	return rs
}

// mustEngine unwraps a NewTrialEngine result under the same contract.
func mustEngine(eng sim.Engine, err error) sim.Engine {
	if err != nil {
		panic(err)
	}
	return eng
}

// trialBatch returns the TrialConfig of one trial batch at base seed seed:
// the trial pool and the engine settings every trial-based experiment
// honours.
func (cfg Config) trialBatch(seed uint64) sim.TrialConfig {
	return sim.TrialConfig{Trials: cfg.Trials, Seed: seed, Workers: cfg.Workers,
		EngineWorkers: cfg.EngineWorkers, Backend: cfg.Backend, Batch: cfg.Batch, Perturb: cfg.Perturb}
}

// engineConfig returns the engine settings the direct-engine figure and
// lemma experiments apply: the backend and the batch policy.
func (cfg Config) engineConfig() sim.TrialConfig {
	return sim.TrialConfig{Backend: cfg.Backend, Batch: cfg.Batch}
}

// censusOf returns an engine's current census view (both backends expose
// one).
func censusOf(eng sim.Engine) sim.CensusView {
	v, err := sim.Census(eng)
	if err != nil {
		panic(err)
	}
	return v
}

// gammaFor returns the phase-clock resolution an experiment should use at
// population size n: the cfg.Gamma override if set, else the derived
// default Γ(n).
func gammaFor(cfg Config, n int) int {
	if cfg.Gamma != 0 {
		return cfg.Gamma
	}
	return phaseclock.DefaultGamma(n)
}

// gammaRange renders the Γ actually in effect across cfg.Sizes for table
// notes: a single value when every size derives (or overrides to) the same
// Γ, else "lo–hi".
func gammaRange(cfg Config) string {
	lo, hi := 0, 0
	for _, n := range cfg.Sizes {
		g := gammaFor(cfg, n)
		if lo == 0 || g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	if lo == hi {
		return fmt.Sprintf("Γ=%d", lo)
	}
	return fmt.Sprintf("Γ=%d–%d", lo, hi)
}

// coreParams returns the paper protocol's parameters for n under cfg,
// honoring the Γ override.
func coreParams(cfg Config, n int) core.Params {
	p := core.DefaultParams(n)
	if cfg.Gamma != 0 {
		p.Gamma = cfg.Gamma
	}
	return p
}

// gs18Params returns the GS18 baseline's parameters for n under cfg,
// honoring the Γ override.
func gs18Params(cfg Config, n int) gs18.Params {
	p := gs18.DefaultParams(n)
	if cfg.Gamma != 0 {
		p.Gamma = cfg.Gamma
	}
	return p
}

// probeEvery returns the census-probe cadence for population size n:
// cfg.ProbeInterval if set, else n/16 — fine enough to localize stage
// transitions, coarse enough that probe work is negligible.
func probeEvery(cfg Config, n int) uint64 {
	if cfg.ProbeInterval > 0 {
		return cfg.ProbeInterval
	}
	if e := uint64(n) / 16; e > 0 {
		return e
	}
	return 1
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
