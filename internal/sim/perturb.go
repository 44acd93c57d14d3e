package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"popelect/internal/rng"
)

// The scenario perturbation layer: adversarial and dynamic population
// models applied on top of any protocol, on every backend, through one
// interface. A Perturbation mutates the population at scheduling-unit
// boundaries — after every step on the dense runner, at batch (or exact
// chunk) boundaries on the counts engine — mirroring the checkpoint hook
// discipline: the
// engine's sampling law inside a unit is untouched, and the perturbation
// acts on the census between units. Boundary application does not bias the
// scheduler because units are bounded (pertCadence) while a perturbation
// is live, so a rate-λ process applied in Binomial(span, λ) lumps at
// sub-parallel-time granularity — the same rounding the batch law already
// carries, and it vanishes entirely on the dense backend's per-step
// boundaries.
//
// Randomness contract: every Perturbation draws exclusively from a
// dedicated stream split off the engine's source at attach time
// (pertStreamTag), never from the engine's scheduler stream. Attaching a
// perturbation therefore cannot shift an engine's interaction randomness,
// and with no perturbation attached every engine takes its exact
// pre-scenario code path (pinned by TestNilPerturbationTraceGolden).

// NoBoundary is returned by Perturbation.NextBoundary when the
// perturbation has no forced application step: any scheduling-unit
// boundary will do.
const NoBoundary = math.MaxUint64

// pertStreamTag is the Split tag of the perturbation stream — far outside
// the worker-index tags the in-batch sampler uses, so the streams can
// never collide.
const pertStreamTag = 0x7065727475726200 // "perturb\0"

// PerturbTarget is the engine-side mutation surface a Perturbation acts
// through. Every engine exposes its population at scheduling-unit
// boundaries behind this interface; implementations keep all census
// structures (class counts, leader counts, fenwick trees, active lists)
// consistent.
type PerturbTarget interface {
	// LiveN is the current population size (time-varying under churn).
	LiveN() int
	// RemoveUniform removes k agents drawn uniformly without replacement
	// (censuses via one multivariate hypergeometric row draw). The engine
	// clamps so at least one interacting pair always remains.
	RemoveUniform(src *rng.Source, k int64)
	// AddAgents adds k agents, each in the protocol's initial state for a
	// uniformly drawn agent index in [0, n₀) — joiners look like freshly
	// initialized agents.
	AddAgents(src *rng.Source, k int64)
	// ScrambleUniform replaces the states of k uniformly chosen agents
	// (without replacement) by states drawn uniformly from the protocol's
	// enumeration. The population size is unchanged.
	ScrambleUniform(src *rng.Source, k int64)
}

// Perturbation is a scenario process perturbing the population while a
// protocol runs. Implementations must be stateless values: all mutable
// bookkeeping (the perturbation stream, the last-applied step) lives in
// the engine, so one Perturbation value can be shared across concurrent
// trials and survives checkpoint/restore by construction.
type Perturbation interface {
	// Name is a short scenario label ("churn", "corruption", "bias").
	Name() string
	// Fingerprint is a canonical configuration string; checkpoints store
	// it and Restore rejects a mismatched perturbation (the analogue of
	// the engine-config fingerprints already in the envelope).
	Fingerprint() string
	// NextBoundary returns the next step strictly after now at which the
	// perturbation must be applied exactly (one-shot events), or
	// NoBoundary when any scheduling-unit boundary will do. Engines clamp
	// their units so a boundary lands on every forced step.
	NextBoundary(now uint64) uint64
	// QuiescentAfter returns the last step at which the perturbation can
	// still mutate the population (0: never mutates; NoBoundary: always
	// live). Engines suppress convergence detection before it: a
	// transiently stable census under active churn is not a stable
	// configuration of the perturbed process.
	QuiescentAfter() uint64
	// Apply perturbs the population for the elapsed interval (prev, now],
	// drawing only from src (the engine-owned perturbation stream).
	Apply(src *rng.Source, t PerturbTarget, prev, now uint64)
	// ClassWeights returns standing scheduler weights over census classes
	// (nil: the uniform scheduler). Missing trailing classes weigh 1.
	ClassWeights() []float64
}

// Perturbable is implemented by every engine that supports scenario
// perturbations — the type-erased configuration hook, the perturbation
// counterpart of BatchConfigurable.
type Perturbable interface {
	// SetPerturbation attaches p (nil detaches, restoring the exact
	// unperturbed fast path). It must be called before Run and before
	// Restore; attaching mid-run is undefined.
	SetPerturbation(p Perturbation) error
}

// ---------------------------------------------------------------------------
// Built-in perturbations.

// Churn is dynamic population membership: at every scheduling-unit
// boundary, Binomial(span, JoinRate) agents join in initial states and
// Binomial(span, LeaveRate) uniformly chosen agents leave, where span is
// the number of elapsed in-window interactions — i.e. independent
// per-interaction join/leave probabilities, aggregated at boundaries. The
// population size becomes time-varying; asymmetric rates grow or shrink
// it (the shrinking-population regime is how the frozen Γ(n₀) phase clock
// is stress-tested — see phaseclock.GammaFor).
type Churn struct {
	// LeaveRate is the per-interaction departure probability mass: over a
	// unit of s in-window interactions, Binomial(s, LeaveRate) uniformly
	// chosen agents leave.
	LeaveRate float64
	// JoinRate is the per-interaction arrival probability mass: joiners
	// enter in Init(j) for a uniform j in [0, n₀).
	JoinRate float64
	// From and Until bound the active window to steps in (From, Until];
	// Until 0 means the whole run. A run with a finite window stabilizes
	// after it, so recovery time is measurable.
	From, Until uint64
	// MinN floors the live population (default 4): departures never drag
	// n below it, so every backend keeps an interacting pair and the
	// counts engine keeps its batch machinery well-defined.
	MinN int
}

// Validate checks the configuration.
func (c Churn) Validate() error {
	if c.LeaveRate < 0 || c.LeaveRate >= 1 || math.IsNaN(c.LeaveRate) {
		return fmt.Errorf("sim: churn leave rate %g outside [0, 1)", c.LeaveRate)
	}
	if c.JoinRate < 0 || c.JoinRate >= 1 || math.IsNaN(c.JoinRate) {
		return fmt.Errorf("sim: churn join rate %g outside [0, 1)", c.JoinRate)
	}
	if c.Until != 0 && c.Until <= c.From {
		return fmt.Errorf("sim: churn window (%d, %d] is empty", c.From, c.Until)
	}
	if c.MinN < 0 {
		return fmt.Errorf("sim: churn MinN %d negative", c.MinN)
	}
	return nil
}

// Name implements Perturbation.
func (c Churn) Name() string { return "churn" }

// Fingerprint implements Perturbation.
func (c Churn) Fingerprint() string {
	return fmt.Sprintf("churn(leave=%g,join=%g,from=%d,until=%d,minn=%d)",
		c.LeaveRate, c.JoinRate, c.From, c.Until, c.minN())
}

func (c Churn) minN() int {
	if c.MinN < 2 {
		return 4
	}
	return c.MinN
}

// NextBoundary implements Perturbation: churn is rate-based, any boundary.
func (c Churn) NextBoundary(now uint64) uint64 { return NoBoundary }

// QuiescentAfter implements Perturbation.
func (c Churn) QuiescentAfter() uint64 {
	if c.LeaveRate == 0 && c.JoinRate == 0 {
		return 0
	}
	if c.Until == 0 {
		return NoBoundary
	}
	return c.Until
}

// ClassWeights implements Perturbation.
func (c Churn) ClassWeights() []float64 { return nil }

// windowSpan returns the number of steps of (prev, now] inside (From, Until].
func windowSpan(prev, now, from, until uint64) uint64 {
	lo := prev
	if from > lo {
		lo = from
	}
	hi := now
	if until != 0 && until < hi {
		hi = until
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Apply implements Perturbation: joins first, then departures (the fixed
// order is part of the law — a boundary's joiners are exposed to the same
// boundary's departures).
func (c Churn) Apply(src *rng.Source, t PerturbTarget, prev, now uint64) {
	span := windowSpan(prev, now, c.From, c.Until)
	if span == 0 {
		return
	}
	if c.JoinRate > 0 {
		if joins := src.Binomial(int64(span), c.JoinRate); joins > 0 {
			t.AddAgents(src, joins)
		}
	}
	if c.LeaveRate > 0 {
		leaves := src.Binomial(int64(span), c.LeaveRate)
		if maxOut := int64(t.LiveN()) - int64(c.minN()); leaves > maxOut {
			leaves = maxOut
		}
		if leaves > 0 {
			t.RemoveUniform(src, leaves)
		}
	}
}

// Corruption is transient state corruption: a one-shot scramble of K
// uniformly chosen agents at step At (their states are replaced by uniform
// draws from the protocol's enumeration — the census-level implementation
// on the counts backends removes them with one MVH row draw), and/or a
// continuous per-interaction scramble rate over a window. The population
// size is unchanged; the protocol must recover from the corrupted
// configuration (or fail to — that is the measurement).
type Corruption struct {
	// K and At configure the one-shot event: K agents scrambled at the
	// first boundary ≥ At (exactly at At on the counts backends, whose
	// units are clamped to land there; exactly at At on the dense
	// backend's per-step boundaries). K 0 disables the one-shot.
	K  int64
	At uint64
	// Rate is a continuous per-interaction scramble probability over the
	// (From, Until] window (0 disables; Until 0 = whole run).
	Rate        float64
	From, Until uint64
}

// Validate checks the configuration.
func (c Corruption) Validate() error {
	if c.K < 0 {
		return fmt.Errorf("sim: corruption K %d negative", c.K)
	}
	if c.K > 0 && c.At == 0 {
		return fmt.Errorf("sim: one-shot corruption needs a positive At step")
	}
	if c.Rate < 0 || c.Rate >= 1 || math.IsNaN(c.Rate) {
		return fmt.Errorf("sim: corruption rate %g outside [0, 1)", c.Rate)
	}
	if c.K == 0 && c.Rate == 0 {
		return fmt.Errorf("sim: corruption with neither K@At nor a rate")
	}
	if c.Until != 0 && c.Until <= c.From {
		return fmt.Errorf("sim: corruption window (%d, %d] is empty", c.From, c.Until)
	}
	return nil
}

// Name implements Perturbation.
func (c Corruption) Name() string { return "corruption" }

// Fingerprint implements Perturbation.
func (c Corruption) Fingerprint() string {
	return fmt.Sprintf("corrupt(k=%d,at=%d,rate=%g,from=%d,until=%d)",
		c.K, c.At, c.Rate, c.From, c.Until)
}

// NextBoundary implements Perturbation: the one-shot step is forced.
func (c Corruption) NextBoundary(now uint64) uint64 {
	if c.K > 0 && c.At > now {
		return c.At
	}
	return NoBoundary
}

// QuiescentAfter implements Perturbation.
func (c Corruption) QuiescentAfter() uint64 {
	q := uint64(0)
	if c.K > 0 {
		q = c.At
	}
	if c.Rate > 0 {
		if c.Until == 0 {
			return NoBoundary
		}
		if c.Until > q {
			q = c.Until
		}
	}
	return q
}

// ClassWeights implements Perturbation.
func (c Corruption) ClassWeights() []float64 { return nil }

// Apply implements Perturbation. The one-shot fires statelessly when At
// lies in (prev, now] — no fired flag, so resume-equals-replay holds with
// no extra checkpoint state.
func (c Corruption) Apply(src *rng.Source, t PerturbTarget, prev, now uint64) {
	if c.K > 0 && prev < c.At && c.At <= now {
		k := c.K
		if live := int64(t.LiveN()); k > live {
			k = live
		}
		t.ScrambleUniform(src, k)
	}
	if c.Rate > 0 {
		if span := windowSpan(prev, now, c.From, c.Until); span > 0 {
			k := src.Binomial(int64(span), c.Rate)
			if live := int64(t.LiveN()); k > live {
				k = live
			}
			if k > 0 {
				t.ScrambleUniform(src, k)
			}
		}
	}
}

// Bias is a non-uniform scheduler: agents are selected proportionally to a
// weight on their census class instead of uniformly. The dense backend
// selects both roles by weighted rejection sampling; the counts backend's
// exact mode does the same on its fenwick draw, and its batched mode draws
// each interaction's roles from a reweighted alias table over
// count×weight with without-replacement depletion (see sampleBatchBiased).
// Bias never mutates the population — stability is unaffected (a stable
// census is absorbing under any scheduler that keeps every pair possible,
// which positive weights do).
type Bias struct {
	// Weights holds one positive finite weight per census class index;
	// classes beyond its length weigh 1. All-equal weights reproduce the
	// uniform scheduler's law.
	Weights []float64
}

// Validate checks the configuration.
func (b Bias) Validate() error {
	if len(b.Weights) == 0 {
		return fmt.Errorf("sim: bias with no class weights")
	}
	for c, w := range b.Weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("sim: bias weight %g for class %d (weights must be positive and finite)", w, c)
		}
	}
	return nil
}

// Name implements Perturbation.
//
// Interplay with silent-step skipping (reactive.go): a live bias bypasses
// the skip entirely — skipEligible refuses while pert.bias is set, because
// the biased scheduler's pair law is not the uniform one the geometric
// thinning argument assumes. Census-mutating perturbations (churn,
// corruption) instead *invalidate* the reactive structures at their
// boundary application (SetPerturbation and every censusAdd/removal call
// reactInvalidate), so the skip re-engages lazily on the perturbed census.
func (b Bias) Name() string { return "bias" }

// Fingerprint implements Perturbation.
func (b Bias) Fingerprint() string {
	parts := make([]string, len(b.Weights))
	for c, w := range b.Weights {
		parts[c] = fmt.Sprintf("%d=%g", c, w)
	}
	return "bias(" + strings.Join(parts, ",") + ")"
}

// NextBoundary implements Perturbation.
func (b Bias) NextBoundary(now uint64) uint64 { return NoBoundary }

// QuiescentAfter implements Perturbation: bias never mutates the census.
func (b Bias) QuiescentAfter() uint64 { return 0 }

// ClassWeights implements Perturbation.
func (b Bias) ClassWeights() []float64 { return b.Weights }

// Apply implements Perturbation: a no-op — bias acts through ClassWeights.
func (b Bias) Apply(src *rng.Source, t PerturbTarget, prev, now uint64) {}

// ---------------------------------------------------------------------------
// Composition.

// Combine merges perturbations into one: Apply runs them in order on a
// shared stream, forced boundaries and quiescence merge, and class-weight
// tables multiply elementwise. Nil entries are dropped; Combine() is nil
// and Combine(p) is p.
func Combine(ps ...Perturbation) Perturbation {
	var live multiPerturb
	for _, p := range ps {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multiPerturb []Perturbation

func (m multiPerturb) Name() string {
	parts := make([]string, len(m))
	for i, p := range m {
		parts[i] = p.Name()
	}
	return strings.Join(parts, "+")
}

func (m multiPerturb) Fingerprint() string {
	parts := make([]string, len(m))
	for i, p := range m {
		parts[i] = p.Fingerprint()
	}
	return strings.Join(parts, "+")
}

func (m multiPerturb) Validate() error {
	for _, p := range m {
		if v, ok := p.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m multiPerturb) NextBoundary(now uint64) uint64 {
	b := uint64(NoBoundary)
	for _, p := range m {
		if pb := p.NextBoundary(now); pb < b {
			b = pb
		}
	}
	return b
}

func (m multiPerturb) QuiescentAfter() uint64 {
	q := uint64(0)
	for _, p := range m {
		if pq := p.QuiescentAfter(); pq > q {
			q = pq
		}
	}
	return q
}

func (m multiPerturb) Apply(src *rng.Source, t PerturbTarget, prev, now uint64) {
	for _, p := range m {
		p.Apply(src, t, prev, now)
	}
}

func (m multiPerturb) ClassWeights() []float64 {
	var merged []float64
	for _, p := range m {
		w := p.ClassWeights()
		if w == nil {
			continue
		}
		if merged == nil {
			merged = append([]float64(nil), w...)
			continue
		}
		for len(merged) < len(w) {
			merged = append(merged, 1)
		}
		for c, v := range w {
			merged[c] *= v
		}
	}
	return merged
}

// ---------------------------------------------------------------------------
// Engine-side bookkeeping, shared by both backends.

// pertState is an engine's perturbation bookkeeping: the attached
// perturbation, its dedicated stream, the last-applied boundary, the
// quiescence step, and the resolved class-weight table of a bias. The zero
// value is the detached (unperturbed) state.
type pertState struct {
	p     Perturbation
	src   *rng.Source
	prev  uint64
	quiet uint64
	// bias is the full NumClasses-length weight table (nil: uniform
	// scheduler); biasMax its maximum, the rejection bound.
	bias    []float64
	biasMax float64
}

// attach validates and installs p, splitting the perturbation stream off
// src. A nil p detaches.
func (ps *pertState) attach(p Perturbation, src *rng.Source, numClasses int) error {
	if p == nil {
		*ps = pertState{}
		return nil
	}
	if v, ok := p.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	bias, biasMax, err := normalizeClassWeights(p.ClassWeights(), numClasses)
	if err != nil {
		return err
	}
	*ps = pertState{
		p:       p,
		src:     src.Split(pertStreamTag),
		quiet:   p.QuiescentAfter(),
		bias:    bias,
		biasMax: biasMax,
	}
	return nil
}

// active reports whether a perturbation is attached.
func (ps *pertState) active() bool { return ps.p != nil }

// live reports whether an attached perturbation can still mutate the
// census at step (i.e. it is not yet quiescent). While live, unit-boundary
// placement is part of the trajectory law — rate-based perturbations draw
// Binomial(span) per unit — so anything that would reshape the boundary
// grid (like clamping units to checkpoint cadences) must hold off.
func (ps *pertState) live(step uint64) bool { return ps.p != nil && step < ps.quiet }

// apply fires the perturbation for the interval (prev, now].
func (ps *pertState) apply(t PerturbTarget, now uint64) {
	if ps.p == nil || now == ps.prev {
		return
	}
	ps.p.Apply(ps.src, t, ps.prev, now)
	ps.prev = now
}

// canConverge reports whether convergence may be declared at step: not
// while the perturbation can still mutate the population.
func (ps *pertState) canConverge(step uint64) bool {
	return ps.p == nil || step >= ps.quiet
}

// clampUnit bounds a scheduling unit of length l starting at now so that
// (a) it ends exactly on the perturbation's next forced boundary, and (b)
// while the perturbation is live, units never exceed cadence interactions
// (0: no cadence bound), so rate-based processes apply at sub-parallel-
// time granularity.
func (ps *pertState) clampUnit(now, l, cadence uint64) uint64 {
	if ps.p == nil {
		return l
	}
	if b := ps.p.NextBoundary(now); b != NoBoundary && b > now {
		if room := b - now; l > room {
			l = room
		}
	}
	if now < ps.quiet && cadence > 0 && l > cadence {
		l = cadence
	}
	if l < 1 {
		l = 1
	}
	return l
}

// pertCadence is the scheduling-unit bound while a perturbation is live:
// n/16 interactions (a 1/16 parallel-time unit), floored at the adaptive
// controller's exact-chunk floor.
func pertCadence(n int) uint64 {
	c := uint64(n) / 16
	if c < adaptiveFloor {
		c = adaptiveFloor
	}
	return c
}

// pertCkpt is the decoded form of a checkpoint's perturbation section.
type pertCkpt struct {
	has      bool
	fp       string
	srcState []byte
	prev     uint64
}

// encode writes the checkpoint perturbation section: an attachment flag
// and, for an attached perturbation, its configuration fingerprint, the
// perturbation stream position and the last-applied boundary.
func (ps *pertState) encode(w *ckptEnc) {
	w.boolean(ps.p != nil)
	if ps.p != nil {
		w.str(ps.p.Fingerprint())
		w.bytes(ps.src.State())
		w.u64(ps.prev)
	}
}

// decodePert reads the checkpoint perturbation section.
func decodePert(r *ckptDec) pertCkpt {
	var c pertCkpt
	c.has = r.boolean()
	if c.has {
		c.fp = r.str()
		c.srcState = r.bytes()
		c.prev = r.u64()
	}
	return c
}

// restore validates a decoded perturbation section against the engine's
// attached perturbation — a perturbed snapshot requires the same
// perturbation (by fingerprint) attached before Restore, an unperturbed
// snapshot requires none — and reinstates the stream position and
// boundary cursor, completing the resume-equals-replay state.
func (ps *pertState) restore(c pertCkpt) error {
	if c.has != (ps.p != nil) {
		if c.has {
			return fmt.Errorf("sim: checkpoint was taken under perturbation %q; call SetPerturbation before Restore", c.fp)
		}
		return fmt.Errorf("sim: checkpoint is unperturbed, engine has perturbation %q attached", ps.p.Fingerprint())
	}
	if !c.has {
		return nil
	}
	if fp := ps.p.Fingerprint(); fp != c.fp {
		return fmt.Errorf("sim: checkpoint perturbation %q, engine has %q", c.fp, fp)
	}
	if err := ps.src.SetState(c.srcState); err != nil {
		return fmt.Errorf("sim: checkpoint perturbation stream: %w", err)
	}
	ps.prev = c.prev
	return nil
}

// normalizeClassWeights expands a ClassWeights slice to the full class
// count (missing classes weigh 1) and returns it with its maximum; a nil
// input stays nil (uniform scheduler).
func normalizeClassWeights(w []float64, numClasses int) ([]float64, float64, error) {
	if w == nil {
		return nil, 0, nil
	}
	if len(w) > numClasses {
		return nil, 0, fmt.Errorf("sim: bias declares %d class weights, protocol has %d classes", len(w), numClasses)
	}
	full := make([]float64, numClasses)
	maxW := 0.0
	for c := range full {
		v := 1.0
		if c < len(w) {
			v = w[c]
		}
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, 0, fmt.Errorf("sim: bias weight %g for class %d (weights must be positive and finite)", v, c)
		}
		full[c] = v
		if v > maxW {
			maxW = v
		}
	}
	return full, maxW, nil
}

// ---------------------------------------------------------------------------
// CLI spec parsers (the ParseBatchPolicy idiom).

// parseStep parses an interaction count written either as a plain integer
// or in scientific notation ("3000000" or "3e6") — step positions in flag
// specs are large enough that the float form is the ergonomic one.
func parseStep(s string) (uint64, error) {
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 0 || f != math.Trunc(f) || f >= (1<<63) {
		return 0, fmt.Errorf("%q is not a whole interaction count", s)
	}
	return uint64(f), nil
}

// ParseChurn parses a churn flag spec: "RATE" (symmetric join/leave
// per-interaction rate) or "LEAVE:JOIN" (asymmetric), optionally followed
// by "@UNTIL" bounding the churn window to the first UNTIL interactions.
// Examples: "1e-4", "2.5e-3:8e-4@3e6".
func ParseChurn(spec string) (Churn, error) {
	var c Churn
	body := spec
	if at := strings.IndexByte(spec, '@'); at >= 0 {
		body = spec[:at]
		until, err := parseStep(spec[at+1:])
		if err != nil || until == 0 {
			return c, fmt.Errorf("sim: churn spec %q: bad window end %q", spec, spec[at+1:])
		}
		c.Until = until
	}
	leaveStr, joinStr, asym := strings.Cut(body, ":")
	leave, err := strconv.ParseFloat(leaveStr, 64)
	if err != nil {
		return c, fmt.Errorf("sim: churn spec %q: bad rate %q", spec, leaveStr)
	}
	c.LeaveRate, c.JoinRate = leave, leave
	if asym {
		join, err := strconv.ParseFloat(joinStr, 64)
		if err != nil {
			return c, fmt.Errorf("sim: churn spec %q: bad join rate %q", spec, joinStr)
		}
		c.JoinRate = join
	}
	return c, c.Validate()
}

// ParseCorruption parses a corruption flag spec: "K@T" scrambles K agents
// once at interaction T, "RATE" scrambles continuously at a
// per-interaction rate, "RATE@UNTIL" bounds the rate window. The pre-@
// part is a one-shot count exactly when it parses as an integer.
// Examples: "1024@2e7", "1e-5", "1e-5@3000000".
func ParseCorruption(spec string) (Corruption, error) {
	var c Corruption
	body, tail, hasAt := strings.Cut(spec, "@")
	if k, err := strconv.ParseInt(body, 10, 64); err == nil {
		if !hasAt {
			return c, fmt.Errorf("sim: corruption spec %q: one-shot needs \"K@T\"", spec)
		}
		at, err := parseStep(tail)
		if err != nil || at == 0 {
			return c, fmt.Errorf("sim: corruption spec %q: bad step %q", spec, tail)
		}
		c.K, c.At = k, at
		return c, c.Validate()
	}
	rate, err := strconv.ParseFloat(body, 64)
	if err != nil {
		return c, fmt.Errorf("sim: corruption spec %q: bad rate %q", spec, body)
	}
	c.Rate = rate
	if hasAt {
		until, err := parseStep(tail)
		if err != nil || until == 0 {
			return c, fmt.Errorf("sim: corruption spec %q: bad window end %q", spec, tail)
		}
		c.Until = until
	}
	return c, c.Validate()
}

// maxBiasClass bounds the class indices ParseBias accepts before it
// allocates the weight slice. Every registered protocol has at most a
// dozen census classes; attaching rejects weights past a protocol's own
// class count anyway.
const maxBiasClass = 255

// ParseBias parses a bias flag spec: comma-separated "CLASS=WEIGHT" pairs
// over census class indices; unlisted classes weigh 1. Example: "0=4,2=0.5".
func ParseBias(spec string) (Bias, error) {
	var b Bias
	for _, part := range strings.Split(spec, ",") {
		cs, ws, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return b, fmt.Errorf("sim: bias spec %q: %q is not CLASS=WEIGHT", spec, part)
		}
		class, err := strconv.Atoi(cs)
		if err != nil || class < 0 || class > maxBiasClass {
			return b, fmt.Errorf("sim: bias spec %q: bad class index %q", spec, cs)
		}
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil {
			return b, fmt.Errorf("sim: bias spec %q: bad weight %q", spec, ws)
		}
		for len(b.Weights) <= class {
			b.Weights = append(b.Weights, 1)
		}
		b.Weights[class] = w
	}
	return b, b.Validate()
}

// ParsePerturbations combines the three CLI flag specs (empty strings are
// skipped) into one Perturbation, or nil when all are empty — the shared
// front end of the -churn/-corrupt/-bias flags.
func ParsePerturbations(churnSpec, corruptSpec, biasSpec string) (Perturbation, error) {
	var ps []Perturbation
	if churnSpec != "" {
		c, err := ParseChurn(churnSpec)
		if err != nil {
			return nil, err
		}
		ps = append(ps, c)
	}
	if corruptSpec != "" {
		c, err := ParseCorruption(corruptSpec)
		if err != nil {
			return nil, err
		}
		ps = append(ps, c)
	}
	if biasSpec != "" {
		b, err := ParseBias(biasSpec)
		if err != nil {
			return nil, err
		}
		ps = append(ps, b)
	}
	return Combine(ps...), nil
}
