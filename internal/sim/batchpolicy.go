package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// BatchMode selects how the counts backend chooses its batch lengths.
type BatchMode uint8

const (
	// BatchAuto is the zero value and the default: exact per-interaction
	// simulation below ExactMaxN agents, the drift-bounded adaptive
	// controller up to AutoAdaptiveMaxN (the faithful regime, validated
	// by the clockspan experiment), and fixed n/8 batches beyond — a pure
	// throughput preference with a known ≈10% stabilization-time bias,
	// not a fidelity requirement, now that the protocols derive a
	// scale-correct Γ(n) (phaseclock.DefaultGamma). Set an explicit mode
	// to override either way.
	BatchAuto BatchMode = iota

	// BatchFixed advances fixed-length batches of Policy.Len interactions
	// (0 = n/8, the historical default). Fast but a genuine perturbation
	// of the sequential scheduler: freezing the census for ℓ interactions
	// runs GS18 stabilization-time means ≈10% high at ℓ = n/8 and ≈30% at
	// ℓ = n/2 — and, more subtly, long batches artificially re-synchronize
	// junta-driven phase clocks (the front advances at most one phase per
	// batch while stragglers jump to the frozen batch-start maximum).
	// Under the old hardwired Γ = 36 that artifact was load-bearing: the
	// true law tears such a clock once the natural ~log n phase spread
	// crosses Γ/2 at n ≈ 10⁷, while ℓ = n/8 held the spread at ~20 phases
	// and kept the scale results stabilizing fast. With the derived Γ(n)
	// the wrap window outgrows the spread at every n, so fixed batches are
	// back to being only the throughput end of the accuracy/speed dial
	// (see the clockspan experiment for the measured re-validation).
	BatchFixed

	// BatchAdaptive bounds each batch so that no state's expected census
	// count drifts by more than an ε fraction (and small states — leaders,
	// juntas, clock minorities — by more than a few absolute agents),
	// estimated from the previous batch's realized per-state deltas. The
	// batch length grows geometrically through quiescent bulk phases,
	// shrinks in the volatile endgame, and falls back to exact stepping
	// when the drift bound drops below a floor.
	BatchAdaptive

	// BatchExact forces one-interaction-at-a-time simulation, which
	// reproduces the dense scheduler's law exactly at any population size.
	BatchExact
)

// String implements fmt.Stringer for diagnostics and table notes.
func (m BatchMode) String() string {
	switch m {
	case BatchAuto:
		return "auto"
	case BatchFixed:
		return "fixed"
	case BatchAdaptive:
		return "adaptive"
	case BatchExact:
		return "exact"
	}
	return fmt.Sprintf("BatchMode(%d)", uint8(m))
}

// DefaultBatchEps is the adaptive controller's default per-batch drift
// bound: the largest ε whose measured stabilization-time bias stays within
// the few-percent band (see the biassweep experiment), while keeping bulk
// phase batches long enough for multi-Ginteraction/s throughput.
const DefaultBatchEps = 0.05

// AutoAdaptiveMaxN is the population size up to which BatchAuto uses the
// drift-bounded adaptive controller; above it, auto falls back to fixed
// n/8 batches purely for throughput (fixed batches simulate ≈7× more
// interactions per second, at a measured ≈10% stabilization-time bias).
//
// History: this boundary used to sit at 2²², and for a correctness reason
// rather than a throughput one — the protocols hardwired Γ = 36, whose
// wrap window Γ/2 the natural ~log n phase spread crosses at n ≈ 10⁷, so
// the faithful adaptive law reproduced the dense scheduler's clock
// tearing there and only fixed batches' artificial re-synchronization
// kept the asymptotic-regime runs finishing. With Γ now derived from n
// (phaseclock.DefaultGamma: Γ/2 ≥ log₂ n at every size) the clockspan
// experiment shows the adaptive policy holding the phase span well under
// Γ/2 through stabilization at n = 10⁷–10⁸, so the boundary is a dial,
// not a cliff: it covers the whole validated range, and an explicit
// BatchAdaptive or BatchFixed overrides the choice at any n.
const AutoAdaptiveMaxN = 1 << 27

// BatchPolicy configures the counts backend's batch scheduling. The zero
// value is BatchAuto: exact below ExactMaxN agents, adaptive with
// DefaultBatchEps above.
type BatchPolicy struct {
	// Mode selects the scheduling strategy.
	Mode BatchMode

	// Len is the fixed batch length for BatchFixed (0 = n/8). Other modes
	// ignore it.
	Len uint64

	// Eps is the adaptive drift bound for BatchAdaptive and BatchAuto
	// (0 = DefaultBatchEps): the maximum fraction by which any state's
	// expected census count may move during one batch. Smaller ε tracks
	// the sequential scheduler more closely at proportionally shorter
	// batches; see the README's batch-policy table for measured numbers.
	Eps float64
}

// String renders the policy the way ParseBatchPolicy accepts it.
func (p BatchPolicy) String() string {
	switch p.Mode {
	case BatchFixed:
		if p.Len > 0 {
			return strconv.FormatUint(p.Len, 10)
		}
		return "fixed"
	case BatchAdaptive:
		if p.Eps > 0 {
			return fmt.Sprintf("adaptive(ε=%g)", p.Eps)
		}
		return "adaptive"
	case BatchExact:
		return "exact"
	}
	return "auto"
}

// BatchConfigurable is implemented by engines whose batch scheduling is
// configurable (the counts backend; the dense runner has no batches). It
// plays the same role as StateTracker: configuring an Engine.
type BatchConfigurable interface {
	SetBatchPolicy(BatchPolicy)
}

// ParseBatchPolicy converts a CLI-style batch spec into a BatchPolicy:
// "auto" (or empty), "adaptive", "exact", "fixed", or a positive integer
// selecting a fixed batch length. The ε dial of the adaptive modes is a
// separate knob (the -batch-eps flags; BatchPolicy.Eps).
func ParseBatchPolicy(s string) (BatchPolicy, error) {
	switch strings.TrimSpace(s) {
	case "", "auto":
		return BatchPolicy{Mode: BatchAuto}, nil
	case "adaptive":
		return BatchPolicy{Mode: BatchAdaptive}, nil
	case "exact":
		return BatchPolicy{Mode: BatchExact}, nil
	case "fixed":
		return BatchPolicy{Mode: BatchFixed}, nil
	}
	l, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil || l == 0 {
		return BatchPolicy{}, fmt.Errorf("sim: bad batch policy %q (want auto, adaptive, exact, fixed or a positive batch length)", s)
	}
	return BatchPolicy{Mode: BatchFixed, Len: l}, nil
}
