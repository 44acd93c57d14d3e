package sim

import (
	"fmt"
	"math"
)

// CensusView is a read-only snapshot of the live state census — the
// state→count vector that describes a population-protocol configuration
// completely (agents are anonymous, so the census is the whole state).
// It is the common observation currency of both backends: the counts
// engine exposes its native representation, the dense runner an
// incrementally maintained (or lazily built) aggregation of its agent
// array.
//
// A view is only valid for the duration of the Probe call (or until the
// engine advances, for views obtained through Census); probes that need
// data beyond that must copy what they read.
type CensusView interface {
	// Step is the interaction count at which the snapshot was taken.
	Step() uint64

	// N is the population size.
	N() int

	// Occupied is the number of distinct states with a nonzero count.
	Occupied() int

	// VisitStates calls f once for every state with a nonzero count.
	// The iteration order is unspecified and may differ between backends
	// and runs: consumers must compute order-insensitive aggregates.
	VisitStates(f func(s uint32, count int64))

	// Classes is the per-class census (see Protocol.Class). Callers must
	// treat it as read-only.
	Classes() []int64

	// Leaders is the current number of leader-output agents.
	Leaders() int
}

// Probe observes the census periodically: it receives a snapshot view at
// every multiple of its registration interval, plus once more when Run
// completes (whatever the final step). Probes run on the simulation
// goroutine and must not retain the view or call back into the engine.
//
// This is the backend-agnostic replacement for the dense runner's
// per-agent Observer: probes work identically on the dense and the counts
// backend, and the counts backend splits its aggregated batches at probe
// boundaries so probes fire at their exact cadence even in the batched
// regime (at the cost of shorter batches — see the README's note on probe
// cadence vs. batch length).
type Probe func(step uint64, v CensusView)

// ProbeTarget is implemented by engines that support census probes; both
// backends do. The interval semantics: every > 0 fires at every multiple
// of every interactions (plus the final fire at the end of Run);
// every == 0 fires only at the end of Run (a final-snapshot probe).
type ProbeTarget interface {
	AddProbe(p Probe, every uint64)

	// Census returns the engine's current census view. The view reads
	// live engine state: it is invalidated by the next interaction.
	Census() CensusView
}

// AddProbe attaches p to eng. It fails if the engine exposes no census.
func AddProbe(eng Engine, p Probe, every uint64) error {
	t, ok := eng.(ProbeTarget)
	if !ok {
		return fmt.Errorf("sim: engine %T does not expose a census", eng)
	}
	t.AddProbe(p, every)
	return nil
}

// Census returns eng's current census view.
func Census(eng Engine) (CensusView, error) {
	t, ok := eng.(ProbeTarget)
	if !ok {
		return nil, fmt.Errorf("sim: engine %T does not expose a census", eng)
	}
	return t.Census(), nil
}

// noProbe marks an empty probe schedule: no boundary is ever due.
const noProbe = math.MaxUint64

// probeEntry is one registered probe with its own cadence.
type probeEntry struct {
	fn    Probe
	every uint64 // 0 = final-only
	next  uint64 // next due step; noProbe when final-only

	// lastFired tracks the entry's most recent periodic fire (valid when
	// hasFired), so the end-of-Run final fire can skip entries that
	// already observed the final step — a budget that is an exact
	// multiple of the interval must yield one sample at that step, not
	// two.
	lastFired uint64
	hasFired  bool
}

// probeSet schedules a collection of probes over one engine. The zero
// value is an empty schedule.
type probeSet struct {
	entries []probeEntry
	next    uint64 // min over entries of next; noProbe when none are due
}

func (ps *probeSet) empty() bool { return len(ps.entries) == 0 }

// add registers a probe; now is the engine's current step count.
func (ps *probeSet) add(fn Probe, every uint64, now uint64) {
	e := probeEntry{fn: fn, every: every, next: noProbe}
	if every > 0 {
		e.next = nextMultiple(now, every)
	}
	ps.entries = append(ps.entries, e)
	ps.recompute()
}

// nextMultiple returns the smallest positive multiple of every that is
// strictly greater than now, saturating at noProbe.
func nextMultiple(now, every uint64) uint64 {
	next := now - now%every + every
	if next <= now { // overflow
		return noProbe
	}
	return next
}

// rebase resets every entry's schedule as if the engine were at step now
// (used by Reset).
func (ps *probeSet) rebase(now uint64) {
	for i := range ps.entries {
		if ps.entries[i].every > 0 {
			ps.entries[i].next = nextMultiple(now, ps.entries[i].every)
		}
		ps.entries[i].hasFired = false
	}
	ps.recompute()
}

func (ps *probeSet) recompute() {
	ps.next = noProbe
	for i := range ps.entries {
		if ps.entries[i].next < ps.next {
			ps.next = ps.entries[i].next
		}
	}
}

// nextBoundary returns the earliest step at which a probe is due; noProbe
// when none.
func (ps *probeSet) nextBoundary() uint64 {
	if len(ps.entries) == 0 {
		return noProbe
	}
	return ps.next
}

// due reports whether a probe must fire at the given step.
func (ps *probeSet) due(step uint64) bool { return step == ps.next }

// fire invokes every entry due at step and advances its schedule. view is
// constructed by the caller (lazily where possible). The schedule is
// advanced before the entry's function runs, so a checkpoint taken at a
// probe boundary records the post-fire schedule (restoring the pre-fire one
// would leave next == the current step and stall the entry forever).
func (ps *probeSet) fire(step uint64, view CensusView) {
	for i := range ps.entries {
		if ps.entries[i].next == step {
			ps.entries[i].next = nextMultiple(step, ps.entries[i].every)
			ps.entries[i].lastFired = step
			ps.entries[i].hasFired = true
			ps.entries[i].fn(step, view)
		}
	}
	ps.recompute()
}

// probeSchedule is the serializable position of one probe entry within its
// cadence, captured into checkpoints. The probe functions themselves are
// not serialized: a resuming process re-registers the same probes (in the
// same order) and restoreSchedules re-aligns their positions.
type probeSchedule struct {
	Every     uint64
	Next      uint64
	LastFired uint64
	HasFired  bool
}

// schedules snapshots the cadence position of every registered entry.
func (ps *probeSet) schedules() []probeSchedule {
	out := make([]probeSchedule, len(ps.entries))
	for i, e := range ps.entries {
		out[i] = probeSchedule{Every: e.every, Next: e.next, LastFired: e.lastFired, HasFired: e.hasFired}
	}
	return out
}

// restoreSchedules re-aligns the registered entries with schedules captured
// by a checkpoint. The resuming process must have registered the same
// probes in the same order; entry count or cadence mismatches are rejected.
func (ps *probeSet) restoreSchedules(scheds []probeSchedule) error {
	if len(scheds) != len(ps.entries) {
		return fmt.Errorf("sim: checkpoint has %d probe schedules, engine has %d probes registered", len(scheds), len(ps.entries))
	}
	for i, sc := range scheds {
		if ps.entries[i].every != sc.Every {
			return fmt.Errorf("sim: probe %d cadence mismatch: checkpoint every=%d, registered every=%d", i, sc.Every, ps.entries[i].every)
		}
		ps.entries[i].next = sc.Next
		ps.entries[i].lastFired = sc.LastFired
		ps.entries[i].hasFired = sc.HasFired
	}
	ps.recompute()
	return nil
}

// fireFinal invokes every entry once with the final snapshot of a Run,
// mirroring the dense observer contract ("once more at the end of Run") —
// except for entries whose periodic schedule already fired at exactly this
// step (a run ending on a cadence boundary), which would otherwise record
// a duplicate sample. Schedules are not advanced: a later Run continues
// the cadence.
func (ps *probeSet) fireFinal(step uint64, view CensusView) {
	for i := range ps.entries {
		if ps.entries[i].hasFired && ps.entries[i].lastFired == step {
			continue
		}
		ps.entries[i].fn(step, view)
		ps.entries[i].lastFired = step
		ps.entries[i].hasFired = true
	}
}
