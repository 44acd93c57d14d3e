package compose

import (
	"fmt"

	"popelect/internal/phaseclock"
)

// Env is the shared context of one interaction, written and read by the
// modules of a protocol in delivery order: the clock module publishes its
// round signal, the coin module its read, and downstream modules consume
// them. A fresh zero Env starts every interaction (Half's zero value is
// phaseclock.Boundary, so clockless compositions see no Early/Late phases
// and no passes).
type Env struct {
	// Passed reports whether the responder's phase passed 0 in this
	// interaction (set by Clock).
	Passed bool
	// Half is the clock half the interaction lies in (set by Clock).
	Half phaseclock.Half
	// Coin is the synthetic-coin read off the initiator (set by Parity).
	Coin bool
}

// Module is one protocol mechanism over the packed state word.
//
// Deliver applies the module's transition rules for a single interaction:
// r is the responder's word with the updates of earlier modules already
// applied, i the initiator's word (unmodified unless an earlier module
// changed it). Modules must be pure — no mutable module state — so that
// protocols stay shareable across concurrent trials.
type Module interface {
	// Fields returns the packed fields the module owns. Build validates
	// that modules do not overlap and derives the default state-space
	// enumeration from the declared cardinalities.
	Fields() []Field

	// Deliver applies the module's rules, returning the updated Env and
	// pair. Env travels by value — it is three small fields, and keeping
	// it in registers keeps the per-interaction hot path allocation-free.
	Deliver(env Env, r, i uint32) (Env, uint32, uint32)
}

// Config assembles a protocol from modules.
type Config struct {
	// Name identifies the protocol in reports.
	Name string

	// N is the population size.
	N int

	// Modules in delivery order: each interaction routes the responder
	// word through every module's Deliver, threading one Env.
	Modules []Module

	// Init states the initial configuration as runs of words in agent
	// order, as sim.Protocol.Init does (nil: one run of the zero word).
	Init func(yield func(s uint32, count int64))

	// NumClasses and Class define the census classes the engines track
	// incrementally (see sim.Protocol).
	NumClasses int
	Class      func(uint32) uint8

	// Leader maps a word to the leader output (nil: no leaders).
	Leader func(uint32) bool

	// Stable is the absorbing stability predicate over class counts.
	Stable func([]int64) bool

	// Space overrides the generated state-space enumeration (nil: the
	// flat cross product of every module field's cardinality). Protocols
	// with role overlays or cross-field invariants declare variants; see
	// Space.
	Space *Space
}

// Protocol is a module composition implementing sim.Protocol.
// Obtain one from Build; the zero value is unusable.
type Protocol struct {
	cfg     Config
	modules []Module
	space   *Space
}

// Build validates the configuration — fields well-formed and pairwise
// non-overlapping across modules, census classes defined, the enumeration
// space consistent — and assembles the protocol.
func Build(cfg Config) (*Protocol, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("compose: protocol needs a name")
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("compose: population %d < 2", cfg.N)
	}
	if len(cfg.Modules) == 0 {
		return nil, fmt.Errorf("compose: %s has no modules", cfg.Name)
	}
	if cfg.NumClasses < 1 || cfg.Class == nil || cfg.Stable == nil {
		return nil, fmt.Errorf("compose: %s needs census classes and a stability predicate", cfg.Name)
	}
	used := uint32(0)
	for _, m := range cfg.Modules {
		for _, f := range m.Fields() {
			if err := f.Valid(); err != nil {
				return nil, fmt.Errorf("compose: %s: %w", cfg.Name, err)
			}
			if used&f.Mask() != 0 {
				return nil, fmt.Errorf("compose: %s: modules overlap at mask %#x", cfg.Name, used&f.Mask())
			}
			used |= f.Mask()
		}
	}
	space := cfg.Space
	if space == nil {
		// Default enumeration: the flat cross product of every module
		// field, in module order.
		space = NewSpace()
		var dims []Dim
		for _, m := range cfg.Modules {
			for _, f := range m.Fields() {
				dims = append(dims, f.Dim())
			}
		}
		space.Variant(0, dims...)
	}
	if err := space.Validate(); err != nil {
		return nil, fmt.Errorf("compose: %s: %w", cfg.Name, err)
	}
	return &Protocol{cfg: cfg, modules: cfg.Modules, space: space}, nil
}

// MustBuild is Build for known-good configurations; it panics on error.
func MustBuild(cfg Config) *Protocol {
	p, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return p.cfg.Name }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.cfg.N }

// Init implements sim.Protocol.
func (p *Protocol) Init(yield func(uint32, int64)) {
	if p.cfg.Init == nil {
		yield(0, int64(p.cfg.N))
		return
	}
	p.cfg.Init(yield)
}

// Delta implements sim.Protocol: one interaction routes the responder word
// through every module in delivery order, threading one Env.
func (p *Protocol) Delta(r, i uint32) (uint32, uint32) {
	var env Env
	for _, m := range p.modules {
		env, r, i = m.Deliver(env, r, i)
	}
	return r, i
}

// NumClasses implements sim.Protocol.
func (p *Protocol) NumClasses() int { return p.cfg.NumClasses }

// Class implements sim.Protocol.
func (p *Protocol) Class(s uint32) uint8 { return p.cfg.Class(s) }

// Leader implements sim.Protocol.
func (p *Protocol) Leader(s uint32) bool { return p.cfg.Leader != nil && p.cfg.Leader(s) }

// Stable implements sim.Protocol.
func (p *Protocol) Stable(counts []int64) bool { return p.cfg.Stable(counts) }

// Space returns the protocol's state-space declaration.
func (p *Protocol) Space() *Space { return p.space }

// EnumMaxStates bounds the generated enumerations handed to the counts
// backend: a Space.Size() beyond it (tens of megabytes of state slice)
// means the composition is too wide to enumerate and should stay on the
// dense backend — Enumerable refuses rather than silently materializing it.
const EnumMaxStates = 1 << 24

// Enumerable wraps the protocol with the generated States() enumeration,
// satisfying sim.Enumerable for the counts backend. It fails if
// the space exceeds EnumMaxStates — such compositions are dense-only.
func (p *Protocol) Enumerable() (*Enumerated, error) {
	if size := p.space.Size(); size > EnumMaxStates {
		return nil, fmt.Errorf("compose: %s enumerates %d states, beyond the %d cap (dense-only)",
			p.cfg.Name, size, EnumMaxStates)
	}
	return &Enumerated{Protocol: p}, nil
}

// MustEnumerable is Enumerable for known-small spaces.
func (p *Protocol) MustEnumerable() *Enumerated {
	e, err := p.Enumerable()
	if err != nil {
		panic(err)
	}
	return e
}

// Enumerated is a composed protocol with a generated finite state-space
// enumeration (sim.Enumerable).
type Enumerated struct {
	*Protocol
}

// States implements sim.Enumerable: the generated enumeration of the
// protocol's declared space — a superset of the reachable states.
func (p *Enumerated) States() []uint32 { return p.space.States() }

// StateCount returns the enumeration's size without materializing it
// (the lottery's space runs to millions of words; listings and registry
// metadata only need the count).
func (p *Enumerated) StateCount() int { return p.space.Size() }
