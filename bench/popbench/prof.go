package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// profLayers are the prof.<layer> shares a traced run reports, in output
// order. Every CPU sample is charged to exactly one of them.
var profLayers = []string{
	"rng.hypergeometric", "rng.other",
	"sim.counts.batch", "sim.counts.silent_classify", "sim.counts.adaptive", "sim.counts.exact",
	"sim.counts.fenwick", "sim.counts.census", "sim.counts.delta", "sim.counts.parallel",
	"sim.dense", "sim.probe", "sim.checkpoint",
	"compose", "protocol.delta",
	"runtime", "unattributed",
}

// simFuncLayer maps internal/sim functions and methods (receiver stripped)
// to their layer. Runner methods and the receiver-typed helpers are
// resolved in simLayer before this table.
var simFuncLayer = map[string]string{}

func init() {
	for layer, fns := range map[string][]string{
		"sim.counts.batch": {"runBatch", "sampleBatchSerial", "sampleBatchBiased", "ensureAlias",
			"stage", "stageOne", "hyper", "hyperDraw", "clampHyper", "occStillSorted",
			"samplePrunedRows", "ensureLen"},
		"sim.counts.silent_classify": {"gsilColumns", "reactivePair", "pairSilentDirect",
			"reactBuild", "reactPartners", "reactInvalidate", "growKeep"},
		"sim.counts.adaptive": {"updateAdaptive", "nextAdvance", "adaptiveOn", "resolvedPolicy",
			"AdaptiveBatchLen", "Run", "RunSteps", "maybePerturb"},
		"sim.counts.exact": {"exactChunk", "exactChunkSkip", "Step", "stepBiased", "biasedUnit",
			"moveOne", "ApplyPair", "reactSample", "geomSkip", "reactUpdate", "reactSetVal", "skipEligible"},
		"sim.counts.fenwick": {"rebuildFenwick"},
		"sim.counts.census": {"bump", "censusAdd", "indexOf", "VisitStates", "Counts", "Leaders",
			"Reset", "result", "DistinctStates"},
		"sim.counts.delta":    {"deltaIDs", "deltaLookup", "deltaIDsSlow", "growDeltaTab"},
		"sim.counts.parallel": {"batchShards", "sampleBatchSharded", "shardRespSplit", "shardPair", "shardStage"},
		"sim.probe":           {"fireProbes", "AddProbe", "Census", "nextMultiple"},
		"sim.checkpoint": {"Snapshot", "Restore", "countsSnapshot", "countsRestore", "maybeCheckpoint",
			"SetCheckpoint", "CheckpointErr", "sealCheckpoint", "openCheckpoint", "enumIndex",
			"encodeSchedules", "decodeSchedules", "denseCkptSupport"},
	} {
		for _, fn := range fns {
			simFuncLayer[fn] = layer
		}
	}
}

var rngHyperFuncs = map[string]bool{
	"Hypergeometric": true, "hypergeometricHyp": true, "hypergeometricHRUA": true,
	"lgam": true, "logFactorial": true, "stirlingCorrection": true, "MultiHypergeometric": true,
}

// protocolPkgs hold transition functions (the registry's subpackages are
// matched by prefix).
var protocolPkgs = map[string]bool{
	"popelect/internal/core": true, "popelect/internal/junta": true, "popelect/internal/phaseclock": true,
	"popelect/internal/syntheticcoin": true, "popelect/internal/epidemic": true,
}

// splitFrame splits a pprof function name such as
// "popelect/internal/sim.(*CountsEngine[go.shape.uint32]).runBatch.func1"
// into package path, receiver type and function name
// ("popelect/internal/sim", "CountsEngine", "runBatch").
func splitFrame(fn string) (pkg, recv, name string) {
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	fn = b.String()
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, "", ""
	}
	pkg, rest := fn[:slash+1+dot], fn[slash+2+dot:]
	if strings.HasPrefix(rest, "(") {
		close := strings.Index(rest, ")")
		if close < 0 {
			return pkg, "", rest
		}
		recv = strings.TrimPrefix(rest[1:close], "*")
		rest = strings.TrimPrefix(rest[close+1:], ".")
	}
	name, _, _ = strings.Cut(rest, ".")
	return pkg, recv, name
}

// frameLayer returns the layer a frame is charged to, or "" for frames
// outside the program (the standard library and the runtime), which pass
// the sample on to their caller. The harness's own frames ("main.") run
// inside the slab only as probe callbacks.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "sim.probe"
	}
	if !strings.HasPrefix(fn, "popelect/") {
		return ""
	}
	pkg, recv, name := splitFrame(fn)
	switch {
	case pkg == "popelect/internal/rng":
		if rngHyperFuncs[name] {
			return "rng.hypergeometric"
		}
		return "rng.other"
	case pkg == "popelect/internal/sim":
		return simLayer(recv, name)
	case pkg == "popelect/internal/compose":
		return "compose"
	case pkg == "popelect/internal/protocols":
		// The registry's type-erasure wrappers: probe adapters and the
		// VisitWords census walk.
		return "sim.probe"
	case protocolPkgs[pkg] || strings.HasPrefix(pkg, "popelect/internal/protocols/"):
		return "protocol.delta"
	}
	return "unattributed"
}

func simLayer(recv, name string) string {
	switch recv {
	case "fenwick":
		return "sim.counts.fenwick"
	case "countsShard":
		return "sim.counts.parallel"
	case "probeSet", "countsView", "denseView":
		return "sim.probe"
	case "ckptState", "ckptEnc", "ckptDec":
		return "sim.checkpoint"
	case "pertState":
		return "sim.counts.adaptive"
	case "Runner":
		switch l := simFuncLayer[name]; l {
		case "sim.probe", "sim.checkpoint":
			return l
		}
		return "sim.dense"
	}
	if l, ok := simFuncLayer[name]; ok {
		return l
	}
	return "unattributed"
}

// parseDuration reads a pprof sample value such as "10ms", "1.20s" or
// "500us" as nanoseconds.
func parseDuration(s string) (float64, error) {
	k := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if k <= 0 {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	v, err := strconv.ParseFloat(s[:k], 64)
	if err != nil {
		return 0, err
	}
	scale, ok := map[string]float64{"ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9}[s[k:]]
	if !ok {
		return 0, fmt.Errorf("bad sample unit in %q", s)
	}
	return v * scale, nil
}

// attributeTraces reads `go tool pprof -traces` output and returns the
// share of sample time charged to each layer: the innermost frame that
// belongs to the program decides, and samples with none go to "runtime".
func attributeTraces(out string) (map[string]float64, error) {
	byLayer := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlock := false
	var value float64
	layer := ""
	flush := func() {
		if !inBlock {
			return
		}
		if layer == "" {
			layer = "runtime"
		}
		byLayer[layer] += value
		total += value
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, value, layer = false, 0, ""
			continue
		}
		text := strings.TrimSpace(line)
		if text == "" {
			continue
		}
		if !inBlock {
			// pprof's header lines (File:, Type:, Duration: ...) start at
			// the margin; a block's first line is "<value> <leaf frame>".
			if !strings.HasPrefix(line, " ") {
				continue
			}
			v, rest, _ := strings.Cut(text, " ")
			d, err := parseDuration(v)
			if err != nil {
				return nil, err
			}
			inBlock, value, text = true, d, strings.TrimSpace(rest)
			if text == "" {
				continue
			}
		}
		if layer == "" {
			// Drop annotations such as " (inline)".
			if i := strings.LastIndex(text, " ("); i > 0 && strings.HasSuffix(text, ")") {
				text = text[:i]
			}
			layer = frameLayer(text)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(profLayers))
	for _, l := range profLayers {
		shares["prof."+l] = 0
		if total > 0 { // a slab shorter than the 10 ms sampling period may hold no sample
			shares["prof."+l] = byLayer[l] / total
		}
	}
	return shares, nil
}

// profileShares attributes the CPU profile at path with
// `go tool pprof -traces`.
func profileShares(path string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("the go command is needed to read the CPU profile: %w", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return attributeTraces(string(out))
}
