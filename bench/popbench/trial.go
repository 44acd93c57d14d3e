package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// trialEngine is one engine built by workload.setup, with the observers
// the workload attaches and what they saw.
type trialEngine struct {
	w    workload
	inst protocols.Instance
	eng  sim.Engine
	tr   *tracer // nil in untraced runs

	setup setupSample

	censusFires int // census-probe fires
	censusBad   int // fires whose census did not sum to n

	ckptBuf   []byte // last checkpoint written to the in-memory sink
	ckptSizes []float64

	// unitEvery is the cadence of the traced run's unit probe (0: none); a
	// restoring engine must register the same probes.
	unitEvery uint64
}

// setup builds the workload's engine through the registry and attaches its
// probes and checkpoints. Spans go under parent when tr is non-nil.
func (w workload) setup(seed uint64, tr *tracer, parent int) (*trialEngine, error) {
	te := &trialEngine{w: w, tr: tr}
	t0 := time.Now()
	sp := tr.begin("protocols.new", parent)
	entry, ok := protocols.Lookup(w.proto)
	if !ok {
		return nil, fmt.Errorf("protocol %q is not registered", w.proto)
	}
	inst, err := entry.New(w.n, protocols.Overrides{})
	if err != nil {
		return nil, fmt.Errorf("new %s(n=%d): %w", w.proto, w.n, err)
	}
	tr.end(sp)
	t1 := time.Now()
	sp = tr.begin("sim.engine_new", parent)
	eng, err := inst.Engine(rng.New(seed), w.backend)
	if err != nil {
		return nil, fmt.Errorf("engine %s: %w", w.backend, err)
	}
	if w.policy != nil {
		bc, ok := eng.(sim.BatchConfigurable)
		if !ok {
			return nil, fmt.Errorf("engine %T has no batch policy", eng)
		}
		bc.SetBatchPolicy(*w.policy)
	}
	if w.workers > 0 {
		wc, ok := eng.(sim.WorkerConfigurable)
		if !ok {
			return nil, fmt.Errorf("engine %T has no worker pool", eng)
		}
		wc.SetWorkers(w.workers)
	}
	te.inst, te.eng = inst, eng
	if w.probeDiv > 0 {
		if err := inst.AddProbe(eng, te.censusProbe, uint64(w.n)/w.probeDiv); err != nil {
			return nil, err
		}
	}
	if w.ckpt {
		cp, ok := eng.(sim.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("engine %T cannot checkpoint", eng)
		}
		cp.SetCheckpoint(uint64(w.n), te.sink)
	}
	tr.end(sp)
	t2 := time.Now()
	te.setup = setupSample{NewS: t1.Sub(t0).Seconds(), EngineNewS: t2.Sub(t1).Seconds()}
	return te, nil
}

// setupSample times the two phases of one setup: protocols.Lookup and
// Entry.New, then Instance.Engine with the engine's configuration, probes
// and checkpoints.
type setupSample struct {
	NewS       float64 `json:"protocols_new_s"`
	EngineNewS float64 `json:"engine_new_s"`
}

func (s setupSample) total() float64 { return s.NewS + s.EngineNewS }

// sampleSetup times w.setupReps back-to-back setups with seed and returns
// their mean phases.
func (w workload) sampleSetup(seed uint64) (setupSample, error) {
	var sum setupSample
	runtime.GC()
	for range w.setupReps {
		te, err := w.setup(seed, nil, -1)
		if err != nil {
			return sum, err
		}
		sum.NewS += te.setup.NewS
		sum.EngineNewS += te.setup.EngineNewS
	}
	reps := float64(w.setupReps)
	return setupSample{NewS: sum.NewS / reps, EngineNewS: sum.EngineNewS / reps}, nil
}

// censusProbe walks the census through VisitStates, as probed runs do, and
// counts fires whose census does not sum to n. Fires inside a traced slab
// are probe spans of their unit.
func (te *trialEngine) censusProbe(_ uint64, v protocols.Census) {
	sp := -1
	if unit := te.tr.unitSpan(); unit >= 0 {
		sp = te.tr.begin("probe", unit)
	}
	var sum int64
	if err := te.inst.VisitWords(v, func(_ uint32, c int64) { sum += c }); err != nil || sum != int64(v.N()) {
		te.censusBad++
	}
	te.censusFires++
	te.tr.end(sp)
}

// sink is the in-memory checkpoint sink: it keeps a copy of the latest
// snapshot, as a file sink would keep the latest file.
func (te *trialEngine) sink(snapshot []byte) error {
	te.ckptBuf = append(te.ckptBuf[:0], snapshot...)
	te.ckptSizes = append(te.ckptSizes, float64(len(snapshot)))
	return nil
}

// checkSlab checks the engine after a slab of `slab` interactions: the step
// count, census conservation (Σ Counts() = n and Σ over VisitStates = n),
// that every reached state is in the protocol's States(), and that the
// attached probes and checkpoints saw a consistent census.
func (te *trialEngine) checkSlab(allowed map[uint32]bool, slab uint64) []string {
	var errs []string
	n := int64(te.w.n)
	if s := te.eng.Steps(); s != slab {
		errs = append(errs, fmt.Sprintf("engine at step %d after a slab of %d", s, slab))
	}
	var sum int64
	for _, c := range te.eng.Counts() {
		sum += c
	}
	if sum != n {
		errs = append(errs, fmt.Sprintf("class census sums to %d, want n=%d", sum, n))
	}
	v, err := te.inst.CensusOf(te.eng)
	if err != nil {
		return append(errs, err.Error())
	}
	sum = 0
	outside := 0
	err = te.inst.VisitWords(v, func(w uint32, c int64) {
		sum += c
		if !allowed[w] {
			outside++
		}
	})
	if err != nil {
		return append(errs, err.Error())
	}
	if sum != n {
		errs = append(errs, fmt.Sprintf("state census sums to %d, want n=%d", sum, n))
	}
	if outside > 0 {
		errs = append(errs, fmt.Sprintf("%d reached states are not in States()", outside))
	}
	if te.w.probeDiv > 0 && (te.censusFires == 0 || te.censusBad > 0) {
		errs = append(errs, fmt.Sprintf("census probe: %d of %d fires saw a census not summing to n", te.censusBad, te.censusFires))
	}
	if te.w.ckpt {
		if err := te.eng.(sim.Checkpointable).CheckpointErr(); err != nil {
			errs = append(errs, err.Error())
		} else if len(te.ckptSizes) == 0 {
			errs = append(errs, "no checkpoint was written during the slab")
		}
	}
	return errs
}

// checkResume snapshots the engine, restores the snapshot into a fresh
// engine with the same configuration and probes, and checks that the
// fresh engine snapshots to the same bytes. It returns the snapshot size
// and the snapshot and restore wall times.
func (te *trialEngine) checkResume(seed uint64, parent int) (size int, snapS, restoreS float64, errs []string) {
	cp := te.eng.(sim.Checkpointable)
	sp := te.tr.begin("checkpoint.snapshot", parent)
	t0 := time.Now()
	snap, err := cp.Snapshot()
	snapS = time.Since(t0).Seconds()
	te.tr.end(sp)
	if err != nil {
		return 0, snapS, 0, []string{"snapshot: " + err.Error()}
	}
	fresh, err := te.w.setup(seed, nil, -1)
	if err == nil && te.unitEvery > 0 {
		err = fresh.inst.AddProbe(fresh.eng, func(uint64, protocols.Census) {}, te.unitEvery)
	}
	if err != nil {
		return len(snap), snapS, 0, []string{"resume setup: " + err.Error()}
	}
	sp = te.tr.begin("checkpoint.restore", parent)
	t0 = time.Now()
	err = fresh.eng.(sim.Checkpointable).Restore(snap)
	restoreS = time.Since(t0).Seconds()
	te.tr.end(sp)
	if err != nil {
		return len(snap), snapS, restoreS, []string{"restore: " + err.Error()}
	}
	again, err := fresh.eng.(sim.Checkpointable).Snapshot()
	if err != nil {
		return len(snap), snapS, restoreS, []string{"snapshot after restore: " + err.Error()}
	}
	if !bytes.Equal(snap, again) {
		errs = append(errs, fmt.Sprintf("snapshot → restore → snapshot differs (%d vs %d bytes)", len(snap), len(again)))
	}
	return len(snap), snapS, restoreS, errs
}

// finish runs the election to the end. Unless the workload finishes on its
// own policy, counts engines switch to fixed n/8 batches first: the slab
// has measured the workload's own policy, and the rest of the run only has
// to reach the checked outcome, which fixed batches do several times
// faster (at a known ≈10% stabilization-time bias, so the finish's
// parallel time is a diagnostic, never gated).
func (te *trialEngine) finish() sim.Result {
	if bc, ok := te.eng.(sim.BatchConfigurable); ok && !te.w.ownFinish {
		bc.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchFixed})
	}
	return te.eng.Run()
}

// checkFinal checks a finished election.
func checkFinal(res sim.Result) []string {
	if !res.Converged {
		return []string{fmt.Sprintf("not stabilized within the budget: %s", res)}
	}
	if res.Leaders != 1 {
		return []string{fmt.Sprintf("stabilized with %d leaders", res.Leaders)}
	}
	return nil
}

// trialResult is one untraced trial.
type trialResult struct {
	Seed             uint64       `json:"seed"`
	Setup            *setupSample `json:"setup,omitempty"` // nil when setup failed
	SlabS            float64      `json:"slab_s"`
	MinterPerS       float64      `json:"minter_per_s"`
	CPUUtil          float64      `json:"cpu_util"`
	AllocMBPerGinter float64      `json:"alloc_mb_per_ginter"`
	GCCPUShare       float64      `json:"gc_cpu_share"`
	// PeakRSSMB is the process's maximum RSS once the slab is checked,
	// before the finish: the finish runs on fixed batches, not on the
	// workload's path, and how far its tables grow depends on how long
	// the trajectory's tail is.
	PeakRSSMB     float64  `json:"peak_rss_mb"`
	FinishS       float64  `json:"finish_s"`
	FinishPartime float64  `json:"finish_partime"`
	Errors        []string `json:"errors,omitempty"`
}

// runTrial runs one untraced trial: setup, the timed slab, the output
// checks, and the rest of the election.
func runTrial(w workload, allowed map[uint32]bool, seed uint64) trialResult {
	r := trialResult{Seed: seed}
	te, err := w.setup(seed, nil, -1)
	if err != nil {
		r.Errors = []string{"setup: " + err.Error()}
		r.PeakRSSMB = peakRSSMB()
		return r
	}
	setup := te.setup // a copy: a pointer into te would keep the engine alive
	r.Setup = &setup
	slab := w.slab * uint64(w.n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0, t0 := gcCPUSeconds(), cpuSeconds(), time.Now()
	te.eng.RunSteps(slab)
	r.SlabS = time.Since(t0).Seconds()
	cpu, gc := cpuSeconds()-cpu0, gcCPUSeconds()-gc0
	runtime.ReadMemStats(&ms1)
	r.MinterPerS = float64(slab) / r.SlabS / 1e6
	r.CPUUtil = cpu / r.SlabS
	r.AllocMBPerGinter = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / (float64(slab) / 1e9)
	if cpu > 0 {
		r.GCCPUShare = gc / cpu
	}
	r.Errors = te.checkSlab(allowed, slab)
	if w.ckpt {
		_, _, _, errs := te.checkResume(seed, -1)
		r.Errors = append(r.Errors, errs...)
		runtime.GC() // drop the restored engine before the finish allocates
	}
	r.PeakRSSMB = peakRSSMB()
	t0 = time.Now()
	res := te.finish()
	r.FinishS = time.Since(t0).Seconds()
	r.FinishPartime = res.ParallelTime()
	r.Errors = append(r.Errors, checkFinal(res)...)
	return r
}

func allowedWords(tp typedProto) map[uint32]bool {
	m := make(map[uint32]bool, len(tp.states))
	for _, s := range tp.states {
		m[s] = true
	}
	return m
}
