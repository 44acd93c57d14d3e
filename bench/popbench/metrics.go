package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// metricDef names a metric with its unit and direction; bound applies to
// end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports, as a user of the
// simulator sees them. Their bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{Name: "minter_per_s", Unit: "Minter/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics a traced run reports. bench/README.md maps each
// group to the end-to-end metric and workload it should move.
var perLayer = slices.Concat([]metricDef{
	// Registry and setup.
	{Name: "protocols.new_s", Unit: "s", Better: "lower"},
	{Name: "sim.engine_new_s", Unit: "s", Better: "lower"},
	{Name: "compose.compile_s", Unit: "s", Better: "lower"},
	{Name: "protocols.state_count", Unit: "count", Better: "lower"},
	// Engine advance.
	{Name: "sim.slab_s", Unit: "s", Better: "lower"},
	{Name: "sim.unit_samples", Unit: "count", Better: "higher"},
	{Name: "sim.unit_ns_per_inter.p50", Unit: "ns", Better: "lower"},
	{Name: "sim.unit_ns_per_inter.p90", Unit: "ns", Better: "lower"},
	{Name: "sim.occupied.p50", Unit: "count", Better: "lower"},
	{Name: "sim.occupied.max", Unit: "count", Better: "lower"},
	{Name: "sim.counts.batch_len.p50", Unit: "inter", Better: "higher"},
	{Name: "sim.counts.effective_workers", Unit: "count", Better: "higher"},
	{Name: "sim.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "sim.finish_s", Unit: "s", Better: "lower"},
	{Name: "sim.finish_partime", Unit: "partime", Better: "lower"},
	// Probes and checkpoints.
	{Name: "sim.probe.fires", Unit: "count", Better: "lower"},
	{Name: "sim.probe.callback_s", Unit: "s", Better: "lower"},
	{Name: "sim.checkpoint.snapshots", Unit: "count", Better: "lower"},
	{Name: "sim.checkpoint.bytes.p50", Unit: "bytes", Better: "lower"},
	{Name: "sim.checkpoint.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	// Random variates and transition functions.
	{Name: "rng.hyper_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.uintn_ns", Unit: "ns", Better: "lower"},
	{Name: "compose.memo_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "compose.delta_ns_per_delta", Unit: "ns", Better: "lower"},
	// Go runtime.
	{Name: "runtime.alloc_mb_per_ginter", Unit: "MB/Ginter", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
}, profMetrics(), []metricDef{
	// Harness.
	{Name: "host.ref_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead", Unit: "share", Better: "lower"},
})

func profMetrics() []metricDef {
	out := make([]metricDef, len(profLayers))
	for k, l := range profLayers {
		out[k] = metricDef{Name: "prof." + l, Unit: "share", Better: "lower"}
	}
	return out
}

// benchmark is the part of BENCHMARK.json the harness reads.
type benchmark struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func loadBenchmark(path string) (benchmark, error) {
	var b benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}
