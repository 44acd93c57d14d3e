package sim

import (
	"fmt"

	"popelect/internal/rng"
)

// The scheduling-unit loop: the one Run/RunSteps driver both engines share.
// Every engine advances in scheduling units — a run of interactions between
// boundaries on the dense runner, one batch or exact chunk on the counts
// engine — and supplies only
// `advance` (one unit of at most `limit` interactions, firing due probes
// inside it at their exact cadence), its stability test, its Snapshot and its
// census view. Everything between units is the loop's, in this order at
// every unit boundary:
//
//  1. perturbation: the attached Perturbation is applied for the elapsed
//     interval (prev, step], so the next unit and the snapshot below see the
//     post-perturbation census;
//  2. checkpoint: a due periodic snapshot fires ("at least every" semantics:
//     at the first unit boundary at or after its cadence point);
//  3. convergence gate: while a perturbation is attached the unit's own
//     stability verdict is replaced by a re-test of the post-perturbation
//     census, and convergence is never declared while the perturbation can
//     still mutate the population;
//
// and when Run ends, the final probe fire (skipping probes whose periodic
// schedule already fired at the final step).
//
// Unit lengths come from two clamps, each written once below. Batches use
// unitLen: they end on the next probe boundary and on the perturbation's
// forced boundary and cadence. Exact chunks use exactLen,
// which follows two rules:
//
//   - exact chunks are never split at probe boundaries: Step fires due probes
//     itself, and silent-step skip engagement is chunk-local (see the resume
//     argument in reactive.go's header), so a probe split would change when
//     the skip engages and make a probed run diverge from an unprobed one;
//   - exact chunks clamp to the checkpoint cadence only while no perturbation
//     is live: splitting a plain Step loop is trajectory-neutral, so the
//     clamp lands checkpoints exactly on their cadence, but while a
//     perturbation is live the unit boundaries are its span grid — moving them
//     onto the checkpoint cadence would change its Binomial(span) draws and a
//     checkpointing run would no longer replay a plain one. Checkpoints then
//     overshoot their cadence by less than one pertCadence unit.
//
// The adaptive controller's below-floor chunks take the perturbation clamp
// alone (pertLen): their length is a drift measurement window, so neither
// probes nor checkpoints may reshape it.
type unitLoop[S comparable] struct {
	eng unitEngine[S]

	// src is the engine's scheduler stream: checkpointed in the payload
	// head, and the perturbation stream is split off it at attach time.
	src *rng.Source

	// n is the live population size; n0 the initial size. They differ only
	// under churn perturbations.
	n, n0 int

	// MaxInteractions bounds Run; 0 means DefaultBudget(n).
	MaxInteractions uint64

	step   uint64
	probes probeSet[S]
	ckpt   ckptState

	// pert is the attached scenario perturbation (see SetPerturbation),
	// applied at every unit boundary through pertTgt, the engine's cached
	// mutation adapter.
	pert    pertState
	pertTgt PerturbTarget

	// kind and name identify the engine and protocol in checkpoint envelopes.
	kind byte
	name string
}

// unitEngine is what an engine supplies to its unitLoop.
type unitEngine[S comparable] interface {
	// advance executes one scheduling unit of at most limit (≥ 1)
	// interactions, firing due probes inside it. With checkStable it
	// reports whether the protocol stabilized, stopping at the exact
	// interaction where it did when the unit steps interaction by
	// interaction; without, it may return false unconditionally.
	advance(limit uint64, checkStable bool) bool
	stable() bool
	view() CensusView[S]
	result(converged bool) Result
	Snapshot() ([]byte, error)
}

func newUnitLoop[S comparable](eng unitEngine[S], kind byte, name string, src *rng.Source, n int) unitLoop[S] {
	return unitLoop[S]{eng: eng, kind: kind, name: name, src: src, n: n, n0: n}
}

// resetLoop is the bookkeeping every engine's Reset shares: the initial
// population size, step 0, and the probe, checkpoint and perturbation
// schedules rebased onto it.
func (u *unitLoop[S]) resetLoop() {
	u.n = u.n0
	u.step = 0
	u.probes.rebase(0)
	u.ckpt.rebase(0)
	u.pert.prev = 0
}

// Run implements Engine: it executes scheduling units until the protocol
// stabilizes or the budget is exhausted, and returns the Result.
func (u *unitLoop[S]) Run() Result {
	budget := u.MaxInteractions
	if budget == 0 {
		budget = DefaultBudget(u.n)
	}
	converged := u.eng.stable() && u.pert.canConverge(u.step)
	for !converged && u.step < budget {
		// Early-stop at exact stabilization only once the perturbation is
		// quiescent (it cannot mutate past that point, so the unit-start
		// check suffices).
		converged = u.eng.advance(budget-u.step, u.pert.canConverge(u.step))
		u.maybePerturb()
		u.maybeCheckpoint()
		if u.pert.active() {
			converged = u.pert.canConverge(u.step) && u.eng.stable()
		}
	}
	if !u.probes.empty() {
		u.probes.fireFinal(u.step, u.eng.view())
	}
	return u.eng.result(converged)
}

// RunSteps implements Engine: it executes exactly k further interactions
// without stopping at stability (units are clamped to the remaining count),
// returning the current Result snapshot. Probes fire at their boundaries
// along the way, without the end-of-Run final fire.
func (u *unitLoop[S]) RunSteps(k uint64) Result {
	end := u.step + k
	for u.step < end {
		u.eng.advance(end-u.step, false)
		u.maybePerturb()
		u.maybeCheckpoint()
	}
	return u.eng.result(u.eng.stable() && u.pert.canConverge(u.step))
}

// maybePerturb applies the attached perturbation for the unit that just
// ended.
func (u *unitLoop[S]) maybePerturb() {
	if u.pert.active() {
		u.pert.apply(u.pertTgt, u.step)
	}
}

func (u *unitLoop[S]) maybeCheckpoint() {
	if u.ckpt.due(u.step) {
		u.ckpt.fire(u.step, u.eng.Snapshot)
	}
}

// unitLen clamps a batch length l at the next probe boundary
// (so the probe observes the census at its exact step) and at the
// perturbation's forced boundary and cadence.
func (u *unitLoop[S]) unitLen(l uint64) uint64 {
	if nb := u.probes.nextBoundary(); nb != noProbe && nb > u.step {
		l = min(l, nb-u.step)
	}
	return u.pertLen(l)
}

// exactLen clamps an exact chunk of l interactions by the two exact-chunk
// rules (see the type comment): no probe split, and a checkpoint-cadence
// clamp only while no perturbation is live.
func (u *unitLoop[S]) exactLen(l uint64) uint64 {
	if cb := u.ckpt.boundary(); cb != noProbe && cb > u.step && !u.pert.live(u.step) {
		l = min(l, cb-u.step)
	}
	return u.pertLen(l)
}

// pertLen clamps a unit of l interactions at the perturbation's forced
// boundary and, while it is live, at pertCadence; the result is at least 1.
func (u *unitLoop[S]) pertLen(l uint64) uint64 {
	return max(u.pert.clampUnit(u.step, l, pertCadence(u.n)), 1)
}

// Steps implements Engine.
func (u *unitLoop[S]) Steps() uint64 { return u.step }

// SetBudget implements Engine: it sets MaxInteractions.
func (u *unitLoop[S]) SetBudget(max uint64) { u.MaxInteractions = max }

// AddProbe implements ProbeTarget: p fires every `every` interactions plus
// once at the end of Run (every == 0: end of Run only). Batches split at
// probe boundaries so probes observe the census at their exact cadence; a
// cadence much shorter than the batch length therefore shortens batches
// and costs throughput.
func (u *unitLoop[S]) AddProbe(p Probe[S], every uint64) {
	u.probes.add(p, every, u.step)
}

// Census implements ProbeTarget: the engine's current census view.
func (u *unitLoop[S]) Census() CensusView[S] { return u.eng.view() }

// fireProbes delivers the probes due at the current step.
func (u *unitLoop[S]) fireProbes() { u.probes.fire(u.step, u.eng.view()) }

// attachPert installs p (nil detaches) with the engine's mutation adapter.
func (u *unitLoop[S]) attachPert(p Perturbation, numClasses int, tgt PerturbTarget) error {
	if err := u.pert.attach(p, u.src, numClasses); err != nil {
		return err
	}
	u.pertTgt = tgt
	return nil
}

// SetCheckpoint implements Checkpointable.
func (u *unitLoop[S]) SetCheckpoint(every uint64, sink CheckpointSink) {
	u.ckpt.configure(every, sink, u.step)
}

// CheckpointErr implements Checkpointable.
func (u *unitLoop[S]) CheckpointErr() error { return u.ckpt.err }

// ---------------------------------------------------------------------------
// Checkpoint framing. Every payload is
//
//	head:   live n | perturbation section | scheduler PRNG state | step
//	middle: the engine's own section
//	tail:   probe schedules
//
// sealed in the versioned envelope (see sealCheckpoint).

// snapshot encodes the head, the engine's middle section (written by body)
// and the tail, and seals the envelope.
func (u *unitLoop[S]) snapshot(body func(w *ckptEnc) error) ([]byte, error) {
	var w ckptEnc
	w.u64(uint64(u.n))
	u.pert.encode(&w)
	w.bytes(u.src.State())
	w.u64(u.step)
	if err := body(&w); err != nil {
		return nil, err
	}
	encodeSchedules(&w, u.probes.schedules())
	return sealCheckpoint(u.kind, u.name, uint64(u.n0), w.buf), nil
}

// ckptHead is a decoded payload head.
type ckptHead struct {
	liveN    int
	pert     pertCkpt
	srcState []byte
	step     uint64
}

// openPayload verifies the envelope and decodes the payload head, leaving
// the decoder at the engine's middle section.
func (u *unitLoop[S]) openPayload(snapshot []byte) (*ckptDec, ckptHead, error) {
	var h ckptHead
	payload, err := openCheckpoint(snapshot, u.kind, u.name, uint64(u.n0))
	if err != nil {
		return nil, h, err
	}
	d := &ckptDec{buf: payload}
	h.liveN = int(d.u64())
	h.pert = decodePert(d)
	h.srcState = d.bytes()
	h.step = d.u64()
	if d.err != nil {
		return nil, h, fmt.Errorf("sim: checkpoint corrupted: %w", d.err)
	}
	if h.liveN < 2 {
		return nil, h, fmt.Errorf("sim: checkpoint live population %d invalid", h.liveN)
	}
	if h.pert.has && h.pert.prev > h.step {
		return nil, h, fmt.Errorf("sim: checkpoint perturbation cursor %d ahead of step %d", h.pert.prev, h.step)
	}
	return d, h, nil
}

// commitPayload decodes the probe-schedule tail after the engine's middle
// section, rejects trailing bytes, and commits the loop's share of the
// restore: the perturbation handshake, the scheduler stream, the probe
// schedules, the population size and the step. The engine commits its own
// state after it succeeds.
func (u *unitLoop[S]) commitPayload(d *ckptDec, h ckptHead) error {
	scheds := decodeSchedules(d)
	if d.err != nil {
		return fmt.Errorf("sim: checkpoint corrupted: %w", d.err)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("sim: checkpoint corrupted: %d trailing payload bytes", len(d.buf)-d.off)
	}
	if err := u.pert.restore(h.pert); err != nil {
		return err
	}
	if err := u.src.SetState(h.srcState); err != nil {
		return fmt.Errorf("sim: checkpoint PRNG state: %w", err)
	}
	if err := u.probes.restoreSchedules(scheds); err != nil {
		return err
	}
	u.n = h.liveN
	u.step = h.step
	u.ckpt.rebase(u.step)
	return nil
}

// encodeSchedules writes the payload tail: every registered probe's cadence
// position (see probeSchedule).
func encodeSchedules(w *ckptEnc, scheds []probeSchedule) {
	w.u32(uint32(len(scheds)))
	for _, s := range scheds {
		w.u64(s.Every)
		w.u64(s.Next)
		w.u64(s.LastFired)
		w.boolean(s.HasFired)
	}
}

func decodeSchedules(r *ckptDec) []probeSchedule {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.buf) { // cheap sanity bound before allocating
		r.fail("bad probe schedule count %d", n)
		return nil
	}
	scheds := make([]probeSchedule, n)
	for i := range scheds {
		scheds[i] = probeSchedule{
			Every:     r.u64(),
			Next:      r.u64(),
			LastFired: r.u64(),
			HasFired:  r.boolean(),
		}
	}
	return scheds
}
