package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"popelect/internal/atomicfile"
)

// Checkpointing turns the engines' implicit run state into an explicit
// snapshot/restore contract. A snapshot captures everything the trajectory
// depends on — the census, the step counter, the PRNG stream position
// (rng.Source.State), the batch-policy controller state, the probe cadence
// positions, and the order-sensitive internals (state-id assignment order,
// active-list order) — so that restoring it in a fresh process and
// continuing yields a byte-identical trajectory: the resume-equals-replay
// law, pinned by TestCheckpointResume*. Batches carry nothing to the next
// batch but the census, so no sampler cache is part of a snapshot.
//
// Snapshots are taken only at scheduling-unit boundaries (between batches
// or exact chunks), where no staged diffs or half-measured drift
// exist. Periodic checkpointing therefore has "at least every" semantics:
// the snapshot fires at the first boundary at or after each cadence point,
// which keeps a checkpointing run's trajectory identical to a
// non-checkpointing one (exact-mode chunks are the exception; see the
// exact-chunk rules in unit.go).

// CheckpointVersion is the snapshot format version. Restore rejects
// snapshots written by any other version. Version 2 added the live
// population size and the perturbation section to every payload (the
// scenario layer: n becomes time-varying under churn, and perturbed
// resumes need the perturbation stream position and boundary cursor);
// the envelope's population field holds the initial n₀. Version 3 dropped
// the removed legacy BatchLen knob from the counts configuration
// fingerprint. Older version-3 snapshots of batched counts runs set the
// counts payload's alias-cache flag and append the serial sampler's
// cross-batch alias cache; that cache is gone, the flag is always written
// as 0, and Restore rejects a 1 by name (dense and exact-mode counts
// snapshots never set it, so they are unchanged).
const CheckpointVersion = 3

// ckptMagic is the snapshot file format tag.
const ckptMagic = "POPCKPT\x00"

// Engine kind tags inside the envelope: a snapshot can only be restored
// into the engine kind that wrote it. Kind 3 belonged to the removed
// sharded engine; it stays reserved so its old snapshots are rejected by
// name rather than misread.
const (
	ckptKindDense   byte = 1
	ckptKindCounts  byte = 2
	ckptKindSharded byte = 3
)

func ckptKindName(k byte) string {
	switch k {
	case ckptKindDense:
		return "dense"
	case ckptKindCounts:
		return "counts"
	case ckptKindSharded:
		return "sharded"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// CheckpointSink receives completed snapshots from a periodically
// checkpointing engine (see Checkpointable.SetCheckpoint). A sink error
// stops further checkpointing and is reported by CheckpointErr; the run
// itself continues.
type CheckpointSink func(snapshot []byte) error

// Checkpointable is the snapshot half of Engine, which embeds it: both
// backends (dense, counts) serialize and restore their complete run state.
//
// The contract is byte-identical resume: Restore into a freshly constructed
// engine with the same protocol, seed-independent configuration (policy,
// workers) and registered probes, then continue the run —
// the trajectory, final census and stabilization time are identical to the
// uninterrupted run's. The PRNG seed itself is part of the snapshot, not of
// the restored engine's construction.
type Checkpointable interface {
	// Snapshot serializes the engine's complete run state into the
	// versioned binary checkpoint format (format tag, version, engine
	// kind, protocol identity, payload, SHA-256 self-check).
	Snapshot() ([]byte, error)

	// Restore replaces the engine's run state with a snapshot previously
	// produced by Snapshot on an identically configured engine. It rejects
	// truncated or corrupted data, format-version mismatches, and
	// engine/protocol/configuration mismatches, leaving the engine in an
	// unspecified-but-resettable state on error.
	Restore(snapshot []byte) error

	// SetCheckpoint enables periodic checkpointing during Run/RunSteps:
	// about every `every` interactions (at the next scheduling-unit
	// boundary) the engine snapshots itself and hands the bytes to sink.
	// every == 0 or a nil sink disables checkpointing.
	SetCheckpoint(every uint64, sink CheckpointSink)

	// CheckpointErr returns the first error encountered while writing
	// periodic checkpoints (snapshot construction or sink failure), or nil.
	// After an error the engine stops checkpointing but keeps running.
	CheckpointErr() error
}

// ckptState is the periodic-checkpoint scheduler embedded in each engine.
type ckptState struct {
	every uint64
	next  uint64 // next due step; noProbe when disabled
	sink  CheckpointSink
	err   error
}

func (c *ckptState) configure(every uint64, sink CheckpointSink, now uint64) {
	c.err = nil
	if every == 0 || sink == nil {
		c.every, c.next, c.sink = 0, noProbe, nil
		return
	}
	c.every, c.sink = every, sink
	c.next = nextMultiple(now, every)
}

func (c *ckptState) rebase(now uint64) {
	if c.every > 0 {
		c.next = nextMultiple(now, c.every)
	}
}

// boundary returns the next checkpoint-due step, noProbe when disabled.
func (c *ckptState) boundary() uint64 {
	if c.every == 0 {
		return noProbe
	}
	return c.next
}

func (c *ckptState) due(step uint64) bool { return c.every != 0 && step >= c.next }

// fire snapshots and delivers if a checkpoint is due at step. Errors latch
// into err and disable further checkpointing.
func (c *ckptState) fire(step uint64, snap func() ([]byte, error)) {
	if !c.due(step) {
		return
	}
	c.next = nextMultiple(step, c.every)
	data, err := snap()
	if err == nil {
		err = c.sink(data)
	}
	if err != nil {
		c.err = fmt.Errorf("sim: checkpoint at step %d: %w", step, err)
		c.every, c.next, c.sink = 0, noProbe, nil
	}
}

// AttachCheckpoint wires checkpoint/resume onto a freshly built engine
// whose perturbation and probes are already attached (a snapshot restores
// only into an engine carrying the same perturbation and probe schedules).
// A non-empty resume restores the engine from that file; a missing file
// starts fresh, so a killed run relaunched with the same configuration
// finishes byte-identically to an uninterrupted one (the
// resume-equals-replay law). every > 0 then snapshots the engine
// atomically to path about every that many interactions; the caller
// checks the engine's CheckpointErr after Run.
func AttachCheckpoint(eng Engine, resume, path string, every uint64) error {
	if resume != "" {
		data, err := os.ReadFile(resume)
		switch {
		case err == nil:
			if err := eng.Restore(data); err != nil {
				return fmt.Errorf("sim: resume from %s: %w", resume, err)
			}
		case !os.IsNotExist(err):
			return fmt.Errorf("sim: resume: %w", err)
		}
	}
	if every > 0 {
		eng.SetCheckpoint(every, func(snapshot []byte) error {
			return atomicfile.Write(path, func(w io.Writer) error {
				_, err := w.Write(snapshot)
				return err
			})
		})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Envelope: magic | version | kind | protocol name | n | payload | SHA-256.

// sealCheckpoint wraps an engine payload in the versioned envelope and
// appends the self-check hash over everything before it.
func sealCheckpoint(kind byte, protoName string, n uint64, payload []byte) []byte {
	var w ckptEnc
	w.raw([]byte(ckptMagic))
	w.u32(CheckpointVersion)
	w.u8(kind)
	w.str(protoName)
	w.u64(n)
	w.bytes(payload)
	sum := sha256.Sum256(w.buf)
	w.raw(sum[:])
	return w.buf
}

// openCheckpoint verifies a snapshot's envelope (integrity hash first, then
// format version, engine kind, protocol identity and population size) and
// returns the engine payload.
func openCheckpoint(data []byte, kind byte, protoName string, n uint64) ([]byte, error) {
	const minLen = len(ckptMagic) + 4 + 1 + 4 + 8 + 8 + sha256.Size
	if len(data) < minLen {
		return nil, fmt.Errorf("sim: checkpoint truncated: %d bytes", len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("sim: not a checkpoint (bad format tag)")
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(body) != [sha256.Size]byte(sum) {
		return nil, fmt.Errorf("sim: checkpoint corrupted (self-check hash mismatch)")
	}
	r := ckptDec{buf: body, off: len(ckptMagic)}
	if v := r.u32(); v != CheckpointVersion {
		return nil, fmt.Errorf("sim: checkpoint format version %d; this binary reads version %d", v, CheckpointVersion)
	}
	if k := r.u8(); k != kind {
		return nil, fmt.Errorf("sim: checkpoint is for the %s engine, not %s", ckptKindName(k), ckptKindName(kind))
	}
	if name := r.str(); name != protoName {
		return nil, fmt.Errorf("sim: checkpoint is for protocol %q, engine runs %q", name, protoName)
	}
	if cn := r.u64(); cn != n {
		return nil, fmt.Errorf("sim: checkpoint population n=%d, engine has n=%d", cn, n)
	}
	payload := r.bytes()
	if r.err != nil {
		return nil, fmt.Errorf("sim: checkpoint corrupted: %w", r.err)
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("sim: checkpoint corrupted: %d trailing bytes", len(body)-r.off)
	}
	return payload, nil
}

// ---------------------------------------------------------------------------
// Binary encoding helpers (little-endian, length-prefixed variable parts).

type ckptEnc struct{ buf []byte }

func (w *ckptEnc) raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *ckptEnc) u8(v byte)    { w.buf = append(w.buf, v) }
func (w *ckptEnc) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *ckptEnc) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *ckptEnc) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *ckptEnc) i64(v int64)  { w.u64(uint64(v)) }
func (w *ckptEnc) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *ckptEnc) str(s string) {
	w.u32(uint32(len(s)))
	w.raw([]byte(s))
}
func (w *ckptEnc) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.raw(b)
}

type ckptDec struct {
	buf []byte
	off int
	err error
}

func (r *ckptDec) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *ckptDec) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) || r.off+n < r.off {
		r.fail("truncated at offset %d (need %d more bytes)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *ckptDec) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptDec) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad boolean at offset %d", r.off-1)
		return false
	}
}

func (r *ckptDec) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptDec) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptDec) i64() int64    { return int64(r.u64()) }
func (r *ckptDec) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *ckptDec) str() string   { return string(r.take(int(r.u32()))) }
func (r *ckptDec) bytes() []byte { return r.take(int(r.u64())) }

// ---------------------------------------------------------------------------
// State codec: agent states serialize as uint32 indices into the protocol's
// States() enumeration, so snapshots are portable across processes (they
// never contain raw in-memory representations beyond the packed state's
// enumeration position).

// enumIndex builds the state → enumeration-index map for proto.
func enumIndex(proto Enumerable) map[uint32]int32 {
	all := proto.States()
	m := make(map[uint32]int32, len(all))
	for i, s := range all {
		if _, dup := m[s]; !dup {
			m[s] = int32(i)
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// Engine middle sections; the shared head and tail are framed by the unit
// loop (see unit.go).

// Snapshot implements Checkpointable.
func (e *CountsEngine) Snapshot() ([]byte, error) {
	if len(e.touched) != 0 {
		return nil, fmt.Errorf("sim: snapshot mid-batch (staged diffs pending)")
	}
	if e.enumIdx == nil {
		e.enumIdx = enumIndex(e.proto)
	}
	return e.snapshot(func(w *ckptEnc) error {
		w.u64(e.adaptLen)
		w.i64(int64(e.effWorkers))
		// Configuration fingerprint: the restoring engine must be configured
		// identically or the resumed trajectory silently diverges.
		w.i64(int64(e.Workers))
		w.u8(byte(e.Policy.Mode))
		w.u64(e.Policy.Len)
		w.f64(e.Policy.Eps)
		// States in id-assignment order (ids are assigned by first
		// appearance, and the assignment order is trajectory-relevant: batch
		// setup sorts occupied states with id tie-breaks).
		w.u32(uint32(len(e.states)))
		for _, s := range e.states {
			ei, ok := e.enumIdx[s]
			if !ok {
				return fmt.Errorf("sim: state %v not in protocol %s's States() enumeration", s, e.proto.Name())
			}
			w.u32(uint32(ei))
		}
		for _, c := range e.pop {
			w.i64(c)
		}
		// Active list in live order (batch setup iterates it).
		w.u32(uint32(len(e.active)))
		for _, id := range e.active {
			w.u32(uint32(id))
		}
		// The alias-cache flag, always 0 (see CheckpointVersion).
		w.boolean(false)
		return nil
	})
}

// Restore implements Checkpointable.
func (e *CountsEngine) Restore(snapshot []byte) error {
	r, h, err := e.openPayload(snapshot)
	if err != nil {
		return err
	}
	adaptLen := r.u64()
	effWorkers := int(r.i64())

	workers := int(r.i64())
	mode := BatchMode(r.u8())
	plen := r.u64()
	peps := r.f64()
	if r.err == nil {
		if workers != e.Workers {
			return fmt.Errorf("sim: checkpoint Workers=%d, engine has %d", workers, e.Workers)
		}
		if mode != e.Policy.Mode || plen != e.Policy.Len || peps != e.Policy.Eps {
			return fmt.Errorf("sim: checkpoint batch policy %s differs from engine's %s",
				BatchPolicy{Mode: mode, Len: plen, Eps: peps}, e.Policy)
		}
	}

	all := e.proto.States()
	m := int(r.u32())
	if r.err == nil && (m < 1 || m > len(all)) {
		return fmt.Errorf("sim: checkpoint has %d discovered states, enumeration bounds %d", m, len(all))
	}
	if r.err != nil {
		return fmt.Errorf("sim: checkpoint corrupted: %w", r.err)
	}
	states := make([]uint32, m)
	index := make(map[uint32]int32, m)
	for id := 0; id < m; id++ {
		ei := int(r.u32())
		if r.err != nil {
			return fmt.Errorf("sim: checkpoint corrupted: %w", r.err)
		}
		if ei < 0 || ei >= len(all) {
			return fmt.Errorf("sim: checkpoint state id %d has enumeration index %d out of range [0,%d)", id, ei, len(all))
		}
		s := all[ei]
		if _, dup := index[s]; dup {
			return fmt.Errorf("sim: checkpoint repeats state %v", s)
		}
		states[id] = s
		index[s] = int32(id)
	}
	pop := make([]int64, m)
	var total int64
	for id := range pop {
		pop[id] = r.i64()
		if pop[id] < 0 || pop[id] > int64(h.liveN) {
			return fmt.Errorf("sim: checkpoint census count %d for state id %d", pop[id], id)
		}
		total += pop[id]
	}
	if r.err == nil && total != int64(h.liveN) {
		return fmt.Errorf("sim: checkpoint census sums to %d agents, live population is %d", total, h.liveN)
	}
	na := int(r.u32())
	if r.err != nil || na < 0 || na > m {
		return fmt.Errorf("sim: checkpoint active list of %d entries over %d states", na, m)
	}
	active := make([]int32, na)
	activePos := make([]int32, m)
	for i := range activePos {
		activePos[i] = -1
	}
	occupied := 0
	for _, c := range pop {
		if c > 0 {
			occupied++
		}
	}
	if na != occupied {
		return fmt.Errorf("sim: checkpoint active list has %d entries, census occupies %d states", na, occupied)
	}
	for i := range active {
		id := int32(r.u32())
		if r.err != nil {
			return fmt.Errorf("sim: checkpoint corrupted: %w", r.err)
		}
		if id < 0 || int(id) >= m || pop[id] == 0 || activePos[id] != -1 {
			return fmt.Errorf("sim: checkpoint active list entry %d invalid (state id %d)", i, id)
		}
		active[i] = id
		activePos[id] = int32(i)
	}

	// The alias-cache flag (see CheckpointVersion): a set flag is a batched
	// snapshot whose rejection randomness a memoryless batch cannot replay.
	if r.boolean() {
		return fmt.Errorf("sim: checkpoint carries the removed cross-batch alias cache (written by an older binary)")
	}
	if err := e.commitPayload(r, h); err != nil {
		return err
	}

	// Commit: rebuild every derived structure from the restored census.
	e.states = states
	e.index = index
	e.classOf = e.classOf[:0]
	e.leaderOf = e.leaderOf[:0]
	for _, s := range states {
		e.classOf = append(e.classOf, e.proto.Class(s))
		e.leaderOf = append(e.leaderOf, e.proto.Leader(s))
	}
	e.pop = pop
	e.diff = make([]int64, m)
	e.touched = e.touched[:0]
	e.active = active
	e.activePos = activePos
	e.classCounts = make([]int64, e.proto.NumClasses())
	e.leaders = 0
	for id, c := range pop {
		e.classCounts[e.classOf[id]] += c
		if e.leaderOf[id] {
			e.leaders += c
		}
	}
	e.rebuildFenwick()
	// The transition memo is pure and refills lazily; only its stride
	// must match the restored state count.
	e.delta.Reset(e.stateBound)
	e.delta.Grow(len(e.states))
	e.adaptLen = adaptLen
	e.effWorkers = effWorkers
	// Reactive-pair structures are derived state and deliberately not
	// serialized: drop them and let the skip walker rebuild from the
	// restored census. Rebuilds are pure functions of census + active
	// order (both restored above), so a resumed run reconstructs exactly
	// what the interrupted run's structures held — see reactive.go's
	// resume argument.
	e.occVer = 0
	e.reactInvalidate()
	return nil
}

// Snapshot implements Checkpointable. Dense checkpoints need an Enumerable
// protocol: agent states serialize through the enumeration.
func (r *Runner) Snapshot() ([]byte, error) {
	en, err := r.enumerable()
	if err != nil {
		return nil, err
	}
	if r.enumIdx == nil {
		r.enumIdx = enumIndex(en)
	}
	return r.snapshot(func(w *ckptEnc) error {
		w.boolean(r.TrackStates)
		// Exactly the live population's agents (n differs from the
		// envelope's n₀ under churn).
		for _, s := range r.pop {
			ei, ok := r.enumIdx[s]
			if !ok {
				return fmt.Errorf("sim: state %v not in protocol %s's States() enumeration", s, r.proto.Name())
			}
			w.u32(uint32(ei))
		}
		if r.TrackStates {
			r.ensureSeen()
			ids := make([]int32, 0, len(r.seen))
			for s := range r.seen {
				ei, ok := r.enumIdx[s]
				if !ok {
					return fmt.Errorf("sim: seen state %v not in protocol %s's States() enumeration", s, r.proto.Name())
				}
				ids = append(ids, ei)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			w.u32(uint32(len(ids)))
			for _, ei := range ids {
				w.u32(uint32(ei))
			}
		}
		return nil
	})
}

func (r *Runner) enumerable() (Enumerable, error) {
	en, ok := r.proto.(Enumerable)
	if !ok {
		return nil, fmt.Errorf("sim: dense checkpoint requires protocol %s to implement Enumerable (finite state-space enumeration)", r.proto.Name())
	}
	return en, nil
}

// Restore implements Checkpointable.
func (r *Runner) Restore(snapshot []byte) error {
	en, err := r.enumerable()
	if err != nil {
		return err
	}
	d, h, err := r.openPayload(snapshot)
	if err != nil {
		return err
	}
	if h.liveN > len(d.buf) {
		return fmt.Errorf("sim: checkpoint live population %d invalid", h.liveN)
	}
	all := en.States()
	track := d.boolean()
	if d.err == nil && track != r.TrackStates {
		return fmt.Errorf("sim: checkpoint TrackStates=%v, engine has %v", track, r.TrackStates)
	}
	pop := make([]uint32, h.liveN)
	for i := range pop {
		ei := int(d.u32())
		if d.err != nil {
			return fmt.Errorf("sim: checkpoint corrupted: %w", d.err)
		}
		if ei < 0 || ei >= len(all) {
			return fmt.Errorf("sim: checkpoint agent %d has enumeration index %d out of range [0,%d)", i, ei, len(all))
		}
		pop[i] = all[ei]
	}
	var seen map[uint32]struct{}
	if track {
		k := int(d.u32())
		if d.err != nil || k < 0 || k > len(all) {
			return fmt.Errorf("sim: checkpoint seen-set of %d states over enumeration of %d", k, len(all))
		}
		seen = make(map[uint32]struct{}, k)
		for i := 0; i < k; i++ {
			ei := int(d.u32())
			if d.err != nil {
				return fmt.Errorf("sim: checkpoint corrupted: %w", d.err)
			}
			if ei < 0 || ei >= len(all) {
				return fmt.Errorf("sim: checkpoint seen-set index %d out of range [0,%d)", ei, len(all))
			}
			seen[all[ei]] = struct{}{}
		}
	}
	if err := r.commitPayload(d, h); err != nil {
		return err
	}
	r.pop = pop
	clear(r.counts)
	r.leaders = 0
	for _, s := range pop {
		r.counts[r.proto.Class(s)]++
		if r.proto.Leader(s) {
			r.leaders++
		}
	}
	r.seen = seen
	if r.censusOn {
		r.stateCensus = buildCensus(r.pop)
	}
	return nil
}
