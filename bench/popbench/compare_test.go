package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthRuns builds untraced runs of one workload with the given values of
// one metric, each run attempting one trial and failing `failed` of them.
func synthRuns(workload, metricName string, values []float64, failed int) []runRecord {
	runs := make([]runRecord, len(values))
	for k, v := range values {
		f := 0
		if k < failed {
			f = 1
		}
		runs[k] = runRecord{Workload: workload, Seed: uint64(k + 1), Result: result{
			Correct: f == 0, Attempted: 1, Failed: f,
			Metrics: map[string]metric{metricName: {Value: v, Unit: "u"}},
		}}
	}
	return runs
}

func synthDef(better string, bound float64) benchmark {
	return benchmark{
		Workloads: []workloadDef{{Name: "w", Why: "test"}},
		EndToEnd:  []metricDef{{Name: "m", Unit: "u", Better: better, Bound: bound}},
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5}
	for _, tc := range []struct {
		name   string
		better string
		bound  float64
		a, b   []float64
		want   string
	}{
		{"same runs unchanged", "higher", 0.10, steady, steady, verdictUnchanged},
		{"small drop within bound", "higher", 0.10, steady, []float64{95, 96, 94, 95.5, 94.5}, verdictUnchanged},
		{"throughput drop beyond bound", "higher", 0.10, steady, []float64{80, 81, 79, 80.5, 79.5}, verdictWorse},
		{"throughput gain", "higher", 0.10, steady, []float64{120, 121, 119, 120.5, 119.5}, verdictBetter},
		{"time rise beyond bound", "lower", 0.10, steady, []float64{120, 121, 119, 120.5, 119.5}, verdictWorse},
		{"time fall", "lower", 0.10, steady, []float64{80, 81, 79, 80.5, 79.5}, verdictBetter},
		{"noisy side is unresolved", "higher", 0.10, steady, []float64{60, 140, 100, 70, 130}, verdictUnresolved},
		{"noisy but every run better", "higher", 0.10, []float64{50, 70, 90, 60, 80}, []float64{200, 300, 400, 250, 350}, verdictBetter},
		{"noisy but every run worse", "higher", 0.10, []float64{200, 300, 400, 250, 350}, []float64{50, 70, 90, 60, 80}, verdictWorse},
		{"gain inside A's spread is unchanged", "higher", 0.10, []float64{96, 100, 104, 98, 102}, []float64{101, 105, 109, 103, 107}, verdictUnchanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := compareRuns(synthDef(tc.better, tc.bound), synthRuns("w", "m", tc.a, 0), synthRuns("w", "m", tc.b, 0))
			if len(rows) != 2 || rows[0].Metric != "m" || rows[1].Metric != "failed_share" {
				t.Fatalf("rows = %+v, want one m row and one failed_share row", rows)
			}
			if got := rows[0].Verdict; got != tc.want {
				t.Errorf("verdict = %s, want %s (row %+v)", got, tc.want, rows[0])
			}
			if rows[1].Verdict != verdictUnchanged {
				t.Errorf("failed_share verdict = %s with no failures", rows[1].Verdict)
			}
		})
	}
}

func TestCompareFailedShare(t *testing.T) {
	vals := []float64{1, 1, 1, 1}
	for _, tc := range []struct {
		name         string
		failA, failB int
		want         string
		wantA, wantB float64
	}{
		{"none", 0, 0, verdictUnchanged, 0, 0},
		{"any new failure is worse", 0, 1, verdictWorse, 0, 0.25},
		{"fewer failures are better", 2, 1, verdictBetter, 0.5, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := compareRuns(synthDef("higher", 0.1), synthRuns("w", "m", vals, tc.failA), synthRuns("w", "m", vals, tc.failB))
			r := rows[len(rows)-1]
			if r.Metric != "failed_share" || r.Verdict != tc.want || r.A.Median != tc.wantA || r.B.Median != tc.wantB {
				t.Errorf("row = %+v, want %s with shares %g → %g", r, tc.want, tc.wantA, tc.wantB)
			}
		})
	}
}

func TestCompareSkipsTracedAndUnsharedWorkloads(t *testing.T) {
	a := synthRuns("w", "m", []float64{1, 2, 3}, 0)
	b := synthRuns("other", "m", []float64{1, 2, 3}, 0)
	if rows := compareRuns(synthDef("higher", 0.1), a, b); len(rows) != 0 {
		t.Errorf("rows for a workload only one side ran: %+v", rows)
	}
	traced := synthRuns("w", "m", []float64{1000}, 0)
	traced[0].Trace = 1
	rows := compareRuns(synthDef("higher", 0.1), a, append(synthRuns("w", "m", []float64{1, 2, 3}, 0), traced...))
	if rows[0].B.N != 3 {
		t.Errorf("B counted %d runs, want the 3 untraced ones", rows[0].B.N)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(..., n=4) on these inputs.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4}, 4, 4},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs []runRecord) string {
		data, err := json.Marshal(resultSet{Commit: name, Runs: runs})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa := write("a", synthRuns("w", "m", []float64{100, 101, 99}, 0))
	pb := write("b", synthRuns("w", "m", []float64{50, 51, 49}, 0))
	var out bytes.Buffer
	worse, err := compareFiles(&out, synthDef("higher", 0.1), pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("worse = %v, output:\n%s", worse, out.String())
	}
}
