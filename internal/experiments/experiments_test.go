package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"popelect/internal/sim"
	"popelect/internal/store"
)

// Smoke tests: every experiment must produce at least one table with rows
// on a small configuration, and tables must render.

func runAndRender(t *testing.T, id string) string {
	t.Helper()
	run, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tables := run(SmokeConfig())
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	var buf bytes.Buffer
	for _, tab := range tables {
		if tab.ID == "" || tab.Title == "" || len(tab.Columns) == 0 {
			t.Fatalf("%s produced an unlabeled table", id)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced an empty table %q", id, tab.ID)
		}
		tab.Render(&buf)
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig3", "lemma41", "lemma53",
		"lemma71", "lemma73", "thm32", "thm82", "epidemic", "ablation", "scale",
		"scalefigures", "biassweep", "clockspan", "parscale", "resilience"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("Lookup must reject unknown ids")
	}
}

func TestTableAddRowValidates(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow with wrong arity must panic")
		}
	}()
	tab.AddRow("only one")
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"col", "value"}}
	tab.AddRow("a", "1")
	tab.AddNote("footnote %d", 7)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "col", "a", "footnote 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEpidemicExperiment(t *testing.T) {
	out := runAndRender(t, "epidemic")
	if !strings.Contains(out, "n ln n") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestThm32Experiment(t *testing.T) {
	out := runAndRender(t, "thm32")
	if !strings.Contains(out, "Phase clock") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestLemma53Experiment(t *testing.T) {
	runAndRender(t, "lemma53")
}

func TestLemma71Experiment(t *testing.T) {
	runAndRender(t, "lemma71")
}

func TestLemma41Experiment(t *testing.T) {
	runAndRender(t, "lemma41")
}

func TestLemma73Experiment(t *testing.T) {
	runAndRender(t, "lemma73")
}

func TestFig1Experiment(t *testing.T) {
	runAndRender(t, "fig1")
}

func TestFig2Experiment(t *testing.T) {
	runAndRender(t, "fig2")
}

func TestFig3Experiment(t *testing.T) {
	runAndRender(t, "fig3")
}

func TestThm82Experiment(t *testing.T) {
	out := runAndRender(t, "thm82")
	if !strings.Contains(out, "Las Vegas") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestAblationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs many variants")
	}
	runAndRender(t, "ablation")
}

func TestTable1Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 runs four protocols")
	}
	out := runAndRender(t, "table1")
	for _, proto := range []string{"slow", "lottery", "gs18", "this work"} {
		if !strings.Contains(out, proto) {
			t.Fatalf("table1 missing protocol %q:\n%s", proto, out)
		}
	}
}

func TestScaleFiguresExperiment(t *testing.T) {
	runAndRender(t, "scalefigures")
}

// TestBiasSweepExperiment smoke-runs the batch-policy bias sweep at small
// scale: every policy row must converge on every trial, the dense ground
// truth row must be present, and the CSV export must land when a series
// directory is configured (the throughput leg is size-gated off here).
func TestBiasSweepExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("biassweep runs six policies × dense ground truth")
	}
	cfg := SmokeConfig()
	cfg.SeriesDir = t.TempDir()
	run, ok := Lookup("biassweep")
	if !ok {
		t.Fatal("biassweep not registered")
	}
	tables := run(cfg)
	if len(tables) != 1 {
		t.Fatalf("smoke biassweep produced %d tables, want 1 (throughput leg must be size-gated off)", len(tables))
	}
	tab := tables[0]
	if len(tab.Rows) != 6 { // dense + 5 policies
		t.Fatalf("bias table has %d rows, want 6:\n%v", len(tab.Rows), tab.Rows)
	}
	for _, row := range tab.Rows {
		conv := row[len(row)-1]
		if i := strings.IndexByte(conv, '/'); i < 0 || conv[:i] != conv[i+1:] {
			t.Fatalf("policy %q converged %s of its trials", row[0], conv)
		}
	}
	matches, err := filepath.Glob(filepath.Join(cfg.SeriesDir, "biassweep_bias_*.csv"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("bias CSV export: %v, %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "policy,eps,trials,partime_mean") {
		t.Fatalf("unexpected CSV header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

// TestScaleFiguresWritesCSV pins the trajectory-export contract: with a
// series directory configured, scalefigures writes one CSV per protocol
// with the step,leaders,occupied_states columns, ending at one leader.
func TestScaleFiguresWritesCSV(t *testing.T) {
	cfg := SmokeConfig()
	cfg.SeriesDir = t.TempDir()
	run, ok := Lookup("scalefigures")
	if !ok {
		t.Fatal("scalefigures not registered")
	}
	run(cfg)
	matches, err := filepath.Glob(filepath.Join(cfg.SeriesDir, "scalefigures_*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("wrote %d CSVs, want 2 (gs18 + gsu19): %v", len(matches), matches)
	}
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if lines[0] != "step,leaders,occupied_states" {
			t.Fatalf("%s header = %q", m, lines[0])
		}
		if len(lines) < 3 {
			t.Fatalf("%s holds only %d lines", m, len(lines))
		}
		if !strings.HasPrefix(lines[1], "0,") {
			t.Fatalf("%s first sample %q is not the step-0 origin", m, lines[1])
		}
		last := strings.Split(lines[len(lines)-1], ",")
		if len(last) != 3 || last[1] != "1" {
			t.Fatalf("%s final sample %q does not end at one leader", m, lines[len(lines)-1])
		}
	}
}

// TestClockSpanExperiment smoke-runs the phase-span re-validation: at
// smoke sizes the derived Γ coincides with the legacy 36 (one row per
// protocol and size), every run converges inside the span budget, the
// span cells parse, and the CSV export lands. The span-under-Γ/2 health
// assertion deliberately lives elsewhere (the n=2²⁰ regression tests in
// gs18 and phaseclock): at a few hundred agents the junta is a handful of
// coins and the clock genuinely smears late in the run without slowing
// the election — small-n noise, not the tearing regime this experiment
// exists to watch.
func TestClockSpanExperiment(t *testing.T) {
	cfg := SmokeConfig()
	cfg.SeriesDir = t.TempDir()
	run, ok := Lookup("clockspan")
	if !ok {
		t.Fatal("clockspan not registered")
	}
	tables := run(cfg)
	if len(tables) != 1 {
		t.Fatalf("clockspan produced %d tables", len(tables))
	}
	tab := tables[0]
	if want := 2 * len(cfg.Sizes); len(tab.Rows) != want {
		t.Fatalf("clockspan has %d rows, want %d (legacy Γ = derived Γ at smoke sizes):\n%v",
			len(tab.Rows), want, tab.Rows)
	}
	for _, row := range tab.Rows {
		if conv := row[4]; !strings.Contains(conv, "/") || strings.HasPrefix(conv, "0/") {
			t.Fatalf("row %v: no trial converged (%q)", row, conv)
		}
		bulk, err1 := strconv.Atoi(row[7])
		full, err2 := strconv.Atoi(row[8])
		if err1 != nil || err2 != nil {
			t.Fatalf("row %v: unparsable span cells", row)
		}
		if bulk < 1 || full < bulk {
			t.Fatalf("row %v: inconsistent spans bulk=%d full=%d", row, bulk, full)
		}
	}
	matches, err := filepath.Glob(filepath.Join(cfg.SeriesDir, "clockspan.csv"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("clockspan CSV export: %v, %v", matches, err)
	}
}

// TestParScaleExperiment smoke-runs the workers × n throughput grid under
// the adaptive policy: one row per (size, worker count), parsable
// throughput cells, and the CSV export lands when a series directory is
// configured.
func TestParScaleExperiment(t *testing.T) {
	cfg := SmokeConfig()
	cfg.Batch = sim.BatchPolicy{Mode: sim.BatchAdaptive}
	cfg.SeriesDir = t.TempDir()
	run, ok := Lookup("parscale")
	if !ok {
		t.Fatal("parscale not registered")
	}
	tables := run(cfg)
	if len(tables) != 1 {
		t.Fatalf("parscale produced %d tables", len(tables))
	}
	tab := tables[0]
	if want := len(cfg.Sizes) * len(parScaleWorkers); len(tab.Rows) != want {
		t.Fatalf("parscale has %d rows, want %d:\n%v", len(tab.Rows), want, tab.Rows)
	}
	for _, row := range tab.Rows {
		if _, err := strconv.ParseFloat(row[4], 64); err != nil {
			t.Fatalf("row %v: unparsable throughput cell", row)
		}
	}
	matches, err := filepath.Glob(filepath.Join(cfg.SeriesDir, "parscale.csv"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("parscale CSV export: %v, %v", matches, err)
	}
}

func TestConfigs(t *testing.T) {
	def := DefaultConfig()
	if len(def.Sizes) == 0 || def.Trials <= 0 {
		t.Fatal("default config unusable")
	}
	smoke := SmokeConfig()
	if maxSize(smoke) >= maxSize(def) {
		t.Fatal("smoke config should be smaller than default")
	}
}

// failWriter errors after a byte budget, standing in for a full disk.
type failWriter struct{ budget int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, os.ErrClosed
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestRenderSurfacesWriteErrors(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"col", "value"}}
	tab.AddRow("a", "1")
	if err := tab.Render(&failWriter{budget: 4}); err == nil {
		t.Fatal("Render must surface the write error")
	}
	if err := RenderAll(&failWriter{budget: 4}, []*Table{tab}); err == nil {
		t.Fatal("RenderAll must surface the write error")
	}
}

// TestStoreReuse runs one trial-based experiment twice against a result
// store: the second run must be answered entirely from the cache and
// produce identical tables.
func TestStoreReuse(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmokeConfig()
	cfg.Store = st

	var first, second bytes.Buffer
	if err := RenderAll(&first, Theorem82(cfg)); err != nil {
		t.Fatal(err)
	}
	hits, misses := st.Stats()
	if hits != 0 || misses != uint64(len(cfg.Sizes)) {
		t.Fatalf("first run: %d hits, %d misses; want 0, %d", hits, misses, len(cfg.Sizes))
	}
	if err := RenderAll(&second, Theorem82(cfg)); err != nil {
		t.Fatal(err)
	}
	hits, misses = st.Stats()
	if hits != uint64(len(cfg.Sizes)) || misses != uint64(len(cfg.Sizes)) {
		t.Fatalf("second run: %d hits, %d misses; want %d, %d", hits, misses, len(cfg.Sizes), len(cfg.Sizes))
	}
	if first.String() != second.String() {
		t.Fatalf("cached run diverges from computed run:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}
}

// TestShortStoreEntryIsError pins that a cached cell holding fewer results
// than its key's trial count is reported, not tabulated as a smaller batch.
func TestShortStoreEntryIsError(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmokeConfig()
	cfg.Store = st
	key := trialKey(cfg, "short", "gs18", 512, cfg.TrialConfig)
	if err := st.PutResults(key, []sim.Result{{Converged: true, N: 512, Leaders: 1}}); err != nil {
		t.Fatal(err)
	}
	_, err = cachedCell(cfg, key, func() ([]sim.Result, error) {
		t.Fatal("a hit must not run the cell")
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "1 results for 3 trials") {
		t.Fatalf("short entry: err = %v, want a result-count error", err)
	}
}
