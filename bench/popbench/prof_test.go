package main

import (
	"math"
	"testing"
)

func TestFrameLayer(t *testing.T) {
	for _, tc := range []struct{ frame, want string }{
		{"popelect/internal/sim.(*fenwick).find", "sim.counts.fenwick"},
		{"popelect/internal/sim.(*CountsEngine[go.shape.uint32]).runBatch.func1", "sim.counts.batch"},
		{"popelect/internal/sim.(*CountsEngine[...]).stageOne", "sim.counts.batch"},
		{"popelect/internal/sim.(*countsShard).stageOne", "sim.counts.parallel"},
		{"popelect/internal/sim.(*Runner[go.shape.uint32,go.shape.*uint8]).Step", "sim.dense"},
		{"popelect/internal/sim.(*Runner[go.shape.uint32,go.shape.*uint8]).fireProbes", "sim.probe"},
		{"popelect/internal/sim.(*CountsEngine[go.shape.uint32]).Step", "sim.counts.exact"},
		{"popelect/internal/sim.hyperDraw", "sim.counts.batch"},
		{"popelect/internal/sim.(*CountsEngine[go.shape.uint32]).noSuchFunction", "unattributed"},
		{"popelect/internal/rng.(*Source).Hypergeometric", "rng.hypergeometric"},
		{"popelect/internal/rng.(*Source).Uint64", "rng.other"},
		{"popelect/internal/compose.(*DeltaMemo).Delta", "compose"},
		{"popelect/internal/core.(*Protocol).Delta", "protocol.delta"},
		{"popelect/internal/protocols/gs18.(*Protocol).classOf", "protocol.delta"},
		{"popelect/internal/protocols.(*instance[go.shape.uint32,go.shape.*uint8]).VisitWords", "sim.probe"},
		{"main.(*unitProbe).fire", "sim.probe"},
		{"runtime.mallocgc", ""},
		{"math.Log", ""},
	} {
		if got := frameLayer(tc.frame); got != tc.want {
			t.Errorf("frameLayer(%q) = %q, want %q", tc.frame, got, tc.want)
		}
	}
}

// traces is `go tool pprof -traces` output in the shape Go 1.24 prints.
const traces = `File: popbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   popelect/internal/sim.(*fenwick).add (inline)
             popelect/internal/sim.(*CountsEngine[go.shape.uint32]).bump
             main.run
-----------+-------------------------------------------------------
      30ms   math.Log
             popelect/internal/rng.(*Source).hypergeometricHRUA
             popelect/internal/sim.hyperDraw
-----------+-------------------------------------------------------
      20ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      10ms   popelect/internal/sim.(*CountsEngine[go.shape.uint32]).renamedHelper (inline)
             popelect/internal/sim.(*CountsEngine[go.shape.uint32]).RunSteps
-----------+-------------------------------------------------------
`

func TestAttributeTraces(t *testing.T) {
	shares, err := attributeTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"prof.sim.counts.fenwick": 0.4,
		"prof.rng.hypergeometric": 0.3,
		"prof.runtime":            0.2,
		"prof.unattributed":       0.1,
	}
	if len(shares) != len(profLayers) {
		t.Errorf("%d shares, want one per layer (%d)", len(shares), len(profLayers))
	}
	for k, v := range shares {
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, v, want[k])
		}
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 1e7, "1.50s": 1.5e9, "500us": 5e5, "20ns": 20} {
		if got, err := parseDuration(in); err != nil || got != want {
			t.Errorf("parseDuration(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	if _, err := parseDuration("ms"); err == nil {
		t.Error("parseDuration accepted a value without digits")
	}
}
