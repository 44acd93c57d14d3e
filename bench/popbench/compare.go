package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// summary is one side of a comparison row.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// compareRow is the verdict on one (workload, end-to-end metric) pair.
type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        summary `json:"a"`
	B        summary `json:"b"`
	// Worse is B's median change relative to A's, signed so that positive
	// is a regression whatever the metric's direction.
	Worse   float64 `json:"worse"`
	Spread  float64 `json:"spread"`
	Verdict string  `json:"verdict"`
}

const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict decides one metric over A's and B's runs:
//   - unresolved when either side's quartile spread exceeds the bound,
//     unless every B run is better (or worse) than every A run;
//   - worse when B's median is worse than A's by more than the bound;
//   - better when B's median is better by more than A's own spread and B
//     wins at least nine tenths of all (A, B) run pairs;
//   - unchanged otherwise.
func verdict(a, b []float64, better string, bound float64) compareRow {
	sa, sb := summarize(a), summarize(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse := sign * (sb.Median - sa.Median)
	if sa.Median != 0 {
		worse /= math.Abs(sa.Median)
	}
	var wins, losses, pairs float64
	for _, x := range a {
		for _, y := range b {
			pairs++
			switch d := sign * (y - x); {
			case d < 0:
				wins++
			case d > 0:
				losses++
			}
		}
	}
	row := compareRow{Bound: bound, A: sa, B: sb, Worse: worse, Spread: max(sa.spread(), sb.spread())}
	switch {
	case pairs == 0:
		row.Verdict = verdictUnresolved
	case row.Spread > bound && wins < pairs && losses < pairs:
		row.Verdict = verdictUnresolved
	case worse > bound:
		row.Verdict = verdictWorse
	case -worse > sa.spread() && wins >= 0.9*pairs:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictUnchanged
	}
	return row
}

// compareRuns compares the untraced runs of two result sets: one row per
// workload present in both and end-to-end metric of def, plus a
// failed_share row (bound 0: any increase is worse).
func compareRuns(def benchmark, a, b []runRecord) []compareRow {
	var rows []compareRow
	for _, w := range def.Workloads {
		ra, rb := untraced(a, w.Name), untraced(b, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, md := range def.EndToEnd {
			row := verdict(metricValues(ra, md.Name), metricValues(rb, md.Name), md.Better, md.Bound)
			row.Workload, row.Metric, row.Unit = w.Name, md.Name, md.Unit
			rows = append(rows, row)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		row := compareRow{Workload: w.Name, Metric: "failed_share", Unit: "share",
			A: summary{fa, fa, fa, len(ra)}, B: summary{fb, fb, fb, len(rb)}, Worse: fb - fa, Verdict: verdictUnchanged}
		switch {
		case fb > fa:
			row.Verdict = verdictWorse
		case fb < fa:
			row.Verdict = verdictBetter
		}
		rows = append(rows, row)
	}
	return rows
}

func untraced(runs []runRecord, workload string) []runRecord {
	var out []runRecord
	for _, r := range runs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedShare(runs []runRecord) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// printRows writes the comparison as a table.
func printRows(out io.Writer, rows []compareRow) error {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tworse\tspread\tbound\tverdict")
	side := func(s summary) string { return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N) }
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, side(r.A), side(r.B), 100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
	}
	return tw.Flush()
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints the comparison of result sets A and B and reports
// whether any row is worse.
func compareFiles(out io.Writer, def benchmark, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	rows := compareRuns(def, a.Runs, b.Runs)
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s share no workload with untraced runs", pathA, pathB)
	}
	fmt.Fprintf(out, "A: %s (commit %s)\nB: %s (commit %s)\n", pathA, a.Commit, pathB, b.Commit)
	if err := printRows(out, rows); err != nil {
		return false, err
	}
	worse := false
	for _, r := range rows {
		worse = worse || r.Verdict == verdictWorse
	}
	return worse, nil
}
