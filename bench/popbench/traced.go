package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// censusBudget is the share of slab wall time the unit probe may spend
// walking the census: cheap on counts engines (every unit is sampled), it
// thins the O(n) census walk of the dense runner to a few units.
const censusBudget = 0.02

// hyperShape is one (good, bad, sample) Hypergeometric argument triple.
type hyperShape struct{ good, bad, sample int64 }

type wordCount struct {
	w uint32
	c int64
}

// unitProbe fires every n interactions during the traced slab. Each fire
// closes the unit[k] span, records the unit's engine time, and samples the
// census: occupancy, the adaptive batch length, (pop[a], n−pop[a], ℓ)
// shapes for the Hypergeometric replay, and live state pairs for the
// Delta timings.
type unitProbe struct {
	te       *trialEngine
	slabSpan int
	slabEnd  uint64
	active   bool
	start    time.Time
	prevStep uint64
	src      *rng.Source // harness randomness; never the engine's

	unitNs   []float64 // engine ns per interaction, one per unit
	occupied []float64
	batchLen []float64
	shapes   []hyperShape
	pairs    [][2]uint32
	walkNs   int64
	buf      []wordCount
	cum      []int64
}

// maxSamples caps the shapes and pairs a traced slab keeps for replay.
const maxSamples = 8192

func (u *unitProbe) fire(step uint64, v protocols.Census) {
	if !u.active {
		return
	}
	tr := u.te.tr
	unit := tr.unit
	sp := tr.begin("probe", unit)
	t0 := time.Now()
	if len(u.occupied) == 0 || float64(u.walkNs) <= censusBudget*float64(t0.Sub(u.start).Nanoseconds()) {
		u.sampleCensus(v)
		u.walkNs += time.Since(t0).Nanoseconds()
	}
	tr.end(sp)
	tr.end(unit)
	if d := step - u.prevStep; d > 0 {
		engineNs := tr.spans[unit].dur() - tr.spans[unit].childNs
		u.unitNs = append(u.unitNs, float64(engineNs)/float64(d))
	}
	u.prevStep = step
	tr.unit = -1
	if step < u.slabEnd {
		tr.unit = tr.begin(fmt.Sprintf("unit[%d]", len(u.unitNs)), u.slabSpan)
	}
}

func (u *unitProbe) sampleCensus(v protocols.Census) {
	n := int64(v.N())
	u.buf = u.buf[:0]
	if err := u.te.inst.VisitWords(v, func(w uint32, c int64) { u.buf = append(u.buf, wordCount{w, c}) }); err != nil {
		return
	}
	u.occupied = append(u.occupied, float64(len(u.buf)))
	l := n / 8
	if al, ok := u.te.eng.(interface{ AdaptiveBatchLen() uint64 }); ok {
		bl := int64(al.AdaptiveBatchLen())
		u.batchLen = append(u.batchLen, float64(bl))
		if bl > 0 {
			l = min(bl, n/2)
		}
	}
	stride := max(1, len(u.buf)/16)
	for k := 0; k < len(u.buf) && len(u.shapes) < maxSamples; k += stride {
		u.shapes = append(u.shapes, hyperShape{u.buf[k].c, n - u.buf[k].c, l})
	}
	u.cum = u.cum[:0]
	var total int64
	for _, wc := range u.buf {
		total += wc.c
		u.cum = append(u.cum, total)
	}
	if total == 0 {
		return
	}
	pick := func() uint32 {
		x := int64(u.src.Uintn(uint64(total)))
		return u.buf[sort.Search(len(u.cum), func(k int) bool { return u.cum[k] > x })].w
	}
	for k := 0; k < 16 && len(u.pairs) < maxSamples; k++ {
		u.pairs = append(u.pairs, [2]uint32{pick(), pick()})
	}
}

// tracedRun runs one traced trial with seed and returns the per-layer
// metrics, its slab throughput in Minter/s, and its failed checks. Spans
// and the slab's CPU profile are written to dir.
func tracedRun(w workload, tp typedProto, allowed map[uint32]bool, seed uint64, dir string) (map[string]float64, float64, []string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, nil, err
	}
	m := map[string]float64{}
	tr := newTracer()
	tr.trial = int(seed)
	root := tr.begin("workload", -1)
	trial := tr.begin("trial", root)
	setup := tr.begin("setup", trial)
	te, err := w.setup(seed, tr, setup)
	if err != nil {
		return nil, 0, nil, err
	}
	compileS := make([]float64, 5)
	for k := range compileS {
		sp := tr.begin("compose.compile", setup)
		t0 := time.Now()
		if tp.compile != nil {
			sinkDelta = tp.compile()
		}
		compileS[k] = time.Since(t0).Seconds()
		tr.end(sp)
	}
	tr.end(setup)
	m["compose.compile_s"] = median(compileS)
	m["protocols.state_count"] = float64(te.inst.StateCount())

	slab := w.slab * uint64(w.n)
	u := &unitProbe{te: te, slabEnd: slab, src: rng.New(seed ^ 0x9e3779b97f4a7c15)}
	te.unitEvery = uint64(w.n)
	if err := te.inst.AddProbe(te.eng, u.fire, te.unitEvery); err != nil {
		return nil, 0, nil, err
	}

	profPath := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, 0, nil, err
	}
	u.slabSpan = tr.begin("slab", trial)
	tr.unit = tr.begin("unit[0]", u.slabSpan)
	cpu0 := cpuSeconds()
	u.start, u.active = time.Now(), true
	te.eng.RunSteps(slab)
	u.active = false
	slabS := time.Since(u.start).Seconds()
	cpuS := cpuSeconds() - cpu0
	tr.end(tr.unit)
	tr.unit = -1
	tr.end(u.slabSpan)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, 0, nil, err
	}
	snapshots := len(te.ckptSizes)

	errs := te.checkSlab(allowed, slab)
	size, snapS, restoreS, rerrs := te.checkResume(seed, trial)
	errs = append(errs, rerrs...)
	sp := tr.begin("finish", trial)
	t0 := time.Now()
	res := te.finish()
	finishS := time.Since(t0).Seconds()
	tr.end(sp)
	errs = append(errs, checkFinal(res)...)
	tr.end(trial)
	tr.end(root)

	m["sim.slab_s"] = slabS
	m["sim.unit_samples"] = float64(len(u.unitNs))
	m["sim.unit_ns_per_inter.p50"] = percentile(u.unitNs, 50)
	m["sim.unit_ns_per_inter.p90"] = percentile(u.unitNs, 90)
	m["sim.occupied.p50"] = percentile(u.occupied, 50)
	m["sim.occupied.max"] = percentile(u.occupied, 100)
	m["sim.counts.batch_len.p50"] = percentile(u.batchLen, 50)
	m["sim.counts.effective_workers"] = 1
	if wr, ok := te.eng.(sim.WorkerReporter); ok {
		m["sim.counts.effective_workers"] = float64(wr.EffectiveWorkers())
	}
	m["sim.cpu_util"] = cpuS / slabS
	m["sim.finish_s"] = finishS
	m["sim.finish_partime"] = res.ParallelTime()

	var fires, callbackNs int64
	for _, s := range tr.spans {
		if s.Name == "probe" { // probe spans exist only inside the slab
			fires++
			callbackNs += s.dur()
		}
	}
	m["sim.probe.fires"] = float64(fires)
	m["sim.probe.callback_s"] = float64(callbackNs) / 1e9
	m["sim.checkpoint.snapshots"] = float64(snapshots)
	m["sim.checkpoint.bytes.p50"] = median(append(te.ckptSizes[:snapshots], float64(size)))
	m["sim.checkpoint.snapshot_ms"] = snapS * 1e3
	m["sim.checkpoint.restore_ms"] = restoreS * 1e3

	src := rng.New(seed)
	m["rng.hyper_ns"] = nsPerCall(len(u.shapes), func() {
		for _, s := range u.shapes {
			sinkI64 += src.Hypergeometric(s.good, s.bad, s.sample)
		}
	})
	const draws = 1 << 16
	m["rng.uintn_ns"] = nsPerCall(draws, func() {
		for range draws {
			sinkI64 += int64(src.Uintn(uint64(w.n)))
		}
	})
	// The memoized Delta the dense runner uses, warmed by one untimed pass;
	// protocols without a compiler fall back to the interpreted Delta, as
	// the runner does.
	deltaPass := func(delta func(r, i uint32) (uint32, uint32)) func() {
		return func() {
			for _, p := range u.pairs {
				a, b := delta(p[0], p[1])
				sinkI64 += int64(a ^ b)
			}
		}
	}
	memo := deltaPass(tp.delta)
	if tp.compile != nil {
		if f := tp.compile(); f != nil {
			memo = deltaPass(f)
		}
	}
	memo()
	m["compose.memo_ns_per_delta"] = nsPerCall(len(u.pairs), memo)
	m["compose.delta_ns_per_delta"] = nsPerCall(len(u.pairs), deltaPass(tp.delta))

	shares, err := profileShares(profPath)
	if err != nil {
		return nil, 0, nil, err
	}
	for k, v := range shares {
		m[k] = v
	}
	return m, float64(slab) / slabS / 1e6, errs, tr.write(filepath.Join(dir, "spans.json"))
}

var (
	sinkDelta func(r, i uint32) (uint32, uint32)
	sinkI64   int64
)

// minTimed is how long each per-layer micro-timing repeats its inputs.
const minTimed = 100 * time.Millisecond

// nsPerCall repeats pass, which makes `calls` calls, for at least minTimed
// and returns the wall ns per call (0 when there is nothing to call).
func nsPerCall(calls int, pass func()) float64 {
	if calls == 0 {
		return 0
	}
	total := 0
	t0 := time.Now()
	for time.Since(t0) < minTimed {
		pass()
		total += calls
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(total)
}
