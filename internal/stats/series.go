package stats

import (
	"fmt"
	"io"
	"math"

	"popelect/internal/atomicfile"
)

// DefaultSeriesPoints is the point budget of a Series created with
// maxPoints <= 1.
const DefaultSeriesPoints = 4096

// Series is a fixed-memory streaming time series of (step, value) samples
// appended in nondecreasing step order — the sink for census-probe
// measurements, whose sample count (one per probe cadence) is unbounded.
//
// Memory stays bounded by downsampling: samples are kept at a stride that
// starts at 1 and doubles whenever the point budget fills (dropping every
// other retained point), so a series of any length keeps between
// maxPoints/2 and maxPoints roughly evenly spaced points. The most recent
// sample is always retained in addition (Points appends it if striding
// dropped it), so the final state of a run is never lost. The layout is a
// deterministic function of the Add sequence, which keeps equal inputs
// byte-comparable across backends and worker counts.
type Series struct {
	// Name labels the series in exports.
	Name string

	maxPoints int
	stride    uint64 // keep every stride-th offered sample
	added     uint64 // samples offered so far

	steps []uint64
	vals  []float64

	lastStep uint64
	lastVal  float64
	hasLast  bool
}

// NewSeries creates a series with the given point budget (values <= 1
// select DefaultSeriesPoints).
func NewSeries(name string, maxPoints int) *Series {
	if maxPoints <= 1 {
		maxPoints = DefaultSeriesPoints
	}
	return &Series{Name: name, maxPoints: maxPoints, stride: 1}
}

// SeriesFromPoints rebuilds a series from exported (step, value) points —
// the inverse of Points, used when rehydrating a series from a result
// store. The points are replayed through Add, so steps must be
// nondecreasing; the budget (<= 1 selects DefaultSeriesPoints) should be at
// least len(steps) if the rebuilt series must export the same points.
func SeriesFromPoints(name string, maxPoints int, steps []uint64, vals []float64) (*Series, error) {
	if len(steps) != len(vals) {
		return nil, fmt.Errorf("stats: %d steps for %d values", len(steps), len(vals))
	}
	s := NewSeries(name, maxPoints)
	for i, step := range steps {
		if i > 0 && step < steps[i-1] {
			return nil, fmt.Errorf("stats: steps not nondecreasing at point %d (%d after %d)", i, step, steps[i-1])
		}
		s.Add(step, vals[i])
	}
	return s, nil
}

// Add appends a sample. Steps must be nondecreasing; a sample with the
// same step as the previous one replaces its value instead of appending a
// duplicate point (probes can fire both at a cadence boundary and once at
// the end of a run, which can coincide — duplicate steps would break the
// step-grid interpolation downstream).
func (s *Series) Add(step uint64, v float64) {
	if s.hasLast && step == s.lastStep {
		s.lastVal = v
		if n := len(s.steps); n > 0 && s.steps[n-1] == step {
			s.vals[n-1] = v
		}
		return
	}
	s.lastStep, s.lastVal, s.hasLast = step, v, true
	if s.added%s.stride == 0 {
		s.steps = append(s.steps, step)
		s.vals = append(s.vals, v)
		if len(s.steps) >= s.maxPoints {
			s.compact()
		}
	}
	s.added++
}

// compact halves the retained points (keeping even indices) and doubles
// the stride.
func (s *Series) compact() {
	half := (len(s.steps) + 1) / 2
	for i := 0; i < half; i++ {
		s.steps[i] = s.steps[2*i]
		s.vals[i] = s.vals[2*i]
	}
	s.steps = s.steps[:half]
	s.vals = s.vals[:half]
	s.stride <<= 1
}

// Len returns the number of exported points (including the trailing
// most-recent sample when striding dropped it).
func (s *Series) Len() int {
	n := len(s.steps)
	if s.trailing() {
		n++
	}
	return n
}

// trailing reports whether the most recent sample is not already the last
// retained point.
func (s *Series) trailing() bool {
	return s.hasLast && (len(s.steps) == 0 || s.steps[len(s.steps)-1] != s.lastStep)
}

// Points returns the retained (step, value) samples, with the most recent
// sample appended when striding dropped it. The slices are copies.
func (s *Series) Points() (steps []uint64, vals []float64) {
	n := s.Len()
	steps = make([]uint64, 0, n)
	vals = make([]float64, 0, n)
	steps = append(steps, s.steps...)
	vals = append(vals, s.vals...)
	if s.trailing() {
		steps = append(steps, s.lastStep)
		vals = append(vals, s.lastVal)
	}
	return steps, vals
}

// Last returns the most recent sample; ok is false for an empty series.
func (s *Series) Last() (step uint64, v float64, ok bool) {
	return s.lastStep, s.lastVal, s.hasLast
}

// Collector records several named series sampled at the same steps — the
// typical shape of one probe extracting several census metrics per fire.
type Collector struct {
	Series []*Series
}

// NewCollector creates one series per name, sharing a point budget
// (<= 1 selects DefaultSeriesPoints).
func NewCollector(maxPoints int, names ...string) *Collector {
	c := &Collector{}
	for _, name := range names {
		c.Series = append(c.Series, NewSeries(name, maxPoints))
	}
	return c
}

// Add appends one sample per series; len(values) must match the number of
// series.
func (c *Collector) Add(step uint64, values ...float64) {
	if len(values) != len(c.Series) {
		panic(fmt.Sprintf("stats: Collector.Add with %d values for %d series", len(values), len(c.Series)))
	}
	for i, v := range values {
		c.Series[i].Add(step, v)
	}
}

// Get returns the series with the given name, or nil.
func (c *Collector) Get(name string) *Series {
	for _, s := range c.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// WriteSeriesCSV writes aligned series as wide CSV: a step column followed
// by one value column per series. All series must have identical step
// sequences (they do when they come from one Collector).
func WriteSeriesCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("stats: no series to write")
	}
	steps, _ := series[0].Points()
	cols := make([][]float64, len(series))
	for i, s := range series {
		st, vals := s.Points()
		if len(st) != len(steps) {
			return fmt.Errorf("stats: series %q has %d points, %q has %d — not aligned",
				s.Name, len(st), series[0].Name, len(steps))
		}
		for j := range st {
			if st[j] != steps[j] {
				return fmt.Errorf("stats: series %q and %q diverge at point %d (steps %d vs %d)",
					s.Name, series[0].Name, j, st[j], steps[j])
			}
		}
		cols[i] = vals
	}
	if _, err := fmt.Fprint(w, "step"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, ",%s", s.Name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for j, step := range steps {
		if _, err := fmt.Fprintf(w, "%d", step); err != nil {
			return err
		}
		for i := range series {
			if _, err := fmt.Fprintf(w, ",%s", csvNum(cols[i][j])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// csvNum renders a sample value: integral values (the common case — census
// counts) print as plain integers, everything else in %g.
func csvNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}

// WriteSeriesCSVFile writes aligned series as wide CSV to path, creating
// the parent directory as needed.
func WriteSeriesCSVFile(path string, series ...*Series) error {
	return atomicfile.Write(path, func(w io.Writer) error { return WriteSeriesCSV(w, series...) })
}

// GridSummary is the cross-trial aggregation of several series over a
// common uniform step grid: per grid point, the mean, min and max over the
// trials.
type GridSummary struct {
	Steps []uint64
	Mean  []float64
	Min   []float64
	Max   []float64
}

// AggregateOnGrid resamples every series onto a uniform grid of `points`
// steps spanning [0, max last step] and aggregates them per grid point.
// Inside a series' observed range values are linearly interpolated;
// before its first sample the first value is used, beyond its last sample
// the last value is carried forward (the right semantics for trajectories
// of absorbing protocols: a converged trial holds its final census). This
// is how per-trial probe series from RunTrials workers — which stop at
// different steps and may have downsampled differently — are combined
// into one mean trajectory.
func AggregateOnGrid(series []*Series, points int) GridSummary {
	var g GridSummary
	if len(series) == 0 || points < 2 {
		return g
	}
	var maxStep uint64
	type traj struct {
		steps []uint64
		vals  []float64
	}
	trajs := make([]traj, 0, len(series))
	for _, s := range series {
		steps, vals := s.Points()
		if len(steps) == 0 {
			continue
		}
		if last := steps[len(steps)-1]; last > maxStep {
			maxStep = last
		}
		trajs = append(trajs, traj{steps, vals})
	}
	if len(trajs) == 0 {
		return g
	}
	g.Steps = make([]uint64, points)
	g.Mean = make([]float64, points)
	g.Min = make([]float64, points)
	g.Max = make([]float64, points)
	for i := 0; i < points; i++ {
		step := maxStep * uint64(i) / uint64(points-1)
		g.Steps[i] = step
		sum := 0.0
		for k, tr := range trajs {
			v := sampleAt(tr.steps, tr.vals, step)
			sum += v
			if k == 0 || v < g.Min[i] {
				g.Min[i] = v
			}
			if k == 0 || v > g.Max[i] {
				g.Max[i] = v
			}
		}
		g.Mean[i] = sum / float64(len(trajs))
	}
	return g
}

// sampleAt evaluates a piecewise-linear trajectory at step, clamping to
// the first/last value outside the observed range.
func sampleAt(steps []uint64, vals []float64, step uint64) float64 {
	if step <= steps[0] {
		return vals[0]
	}
	if step >= steps[len(steps)-1] {
		return vals[len(vals)-1]
	}
	// Binary search for the first index with steps[i] >= step.
	lo, hi := 0, len(steps)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if steps[mid] < step {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if steps[lo] == step {
		return vals[lo]
	}
	s0, s1 := steps[lo-1], steps[lo]
	if s1 == s0 {
		// Duplicate-step points (impossible through Series.Add, which
		// dedupes, but cheap to guard): take the later sample rather than
		// dividing by zero.
		return vals[lo]
	}
	frac := float64(step-s0) / float64(s1-s0)
	return vals[lo-1]*(1-frac) + vals[lo]*frac
}

// WriteCSV writes the grid summary as CSV with columns step, mean, min,
// max.
func (g GridSummary) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "step,mean,min,max"); err != nil {
		return err
	}
	for i, step := range g.Steps {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s\n",
			step, csvNum(g.Mean[i]), csvNum(g.Min[i]), csvNum(g.Max[i])); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVFile writes the grid summary as CSV to path, creating the
// parent directory as needed.
func (g GridSummary) WriteCSVFile(path string) error {
	return atomicfile.Write(path, g.WriteCSV)
}
