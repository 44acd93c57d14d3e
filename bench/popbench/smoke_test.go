package main

import (
	"path/filepath"
	"testing"

	"popelect/internal/sim"
)

// TestMetricTablesMatchBenchmark pins the harness's workload and metric
// tables to BENCHMARK.json: same names, in the same order, with the same
// units and directions.
func TestMetricTablesMatchBenchmark(t *testing.T) {
	def, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(def.Workloads), len(workloads))
	}
	for k, w := range workloads {
		if def.Workloads[k].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", k, def.Workloads[k].Name, w.name)
		}
	}
	for _, tc := range []struct {
		kind      string
		file, got []metricDef
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(tc.file) != len(tc.got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", tc.kind, len(tc.file), len(tc.got))
			continue
		}
		for k, m := range tc.got {
			f := tc.file[k]
			if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %s [%s, %s], harness %s [%s, %s]",
					tc.kind, k, f.Name, f.Unit, f.Better, m.Name, m.Unit, m.Better)
			}
		}
	}
}

// TestSmokeWorkloads runs every workload untraced and traced at toy scale
// (n = 2¹², a slab of 20n) and checks that the runs pass their output
// checks and emit exactly the metrics BENCHMARK.json names, with its units.
// The elections finish on the batch policy the workload measures at full
// scale, so the one-leader check covers that path too.
func TestSmokeWorkloads(t *testing.T) {
	def, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.backend == sim.BackendCounts && w.policy == nil && w.n >= sim.ExactMaxN && w.n <= sim.AutoAdaptiveMaxN {
			// The auto policy picks adaptive batches at full scale but exact
			// steps at toy scale.
			w.policy = &sim.BatchPolicy{Mode: sim.BatchAdaptive}
		}
		w.n, w.slab, w.setupReps, w.ownFinish = 1<<12, 20, 1, true
		t.Run(w.name, func(t *testing.T) {
			for _, tc := range []struct {
				traced bool
				want   []metricDef
			}{{false, def.EndToEnd}, {true, def.PerLayer}} {
				res, det, err := run(w, 1, 0, tc.traced, t.TempDir())
				if err != nil {
					t.Fatalf("traced=%v: %v", tc.traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v failed=%d/%d, detail %+v", tc.traced, res.Correct, res.Failed, res.Attempted, det)
				}
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", tc.traced, len(res.Metrics), len(tc.want))
				}
				for _, md := range tc.want {
					m, ok := res.Metrics[md.Name]
					if !ok {
						t.Errorf("traced=%v: no metric %s", tc.traced, md.Name)
					} else if m.Unit != md.Unit {
						t.Errorf("traced=%v: %s in %s, BENCHMARK.json says %s", tc.traced, md.Name, m.Unit, md.Unit)
					}
				}
			}
		})
	}
}
