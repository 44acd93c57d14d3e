package protocols

import (
	"fmt"

	"popelect/internal/core"
	"popelect/internal/epidemic"
	"popelect/internal/phaseclock"
	"popelect/internal/protocols/approxmajority"
	"popelect/internal/protocols/clockedbroadcast"
	"popelect/internal/protocols/clockedmajority"
	"popelect/internal/protocols/exactmajority"
	"popelect/internal/protocols/gs18"
	"popelect/internal/protocols/lottery"
	"popelect/internal/protocols/slow"
	"popelect/internal/protocols/sudo19"
)

// Overrides carries the cross-protocol parameter overrides every entry
// constructor understands (0 = the protocol's derived default). Protocols
// without a given parameter ignore the override — the historical CLI
// behavior (-phi on the lottery has always been a no-op).
type Overrides struct {
	// Gamma overrides the phase-clock resolution Γ of clocked protocols.
	Gamma int
	// Phi overrides the junta level cap Φ (GSU19, GS18, the clocked
	// scenario protocols).
	Phi int
	// Psi overrides the drag-counter range Ψ (GSU19).
	Psi int
}

// Entry is one registered protocol: constructor, capability flags, and the
// metadata the CLIs and experiment tables render.
type Entry struct {
	// Name is the registry key (the CLI -alg value).
	Name string

	// Display is the presentation label used by Table 1 and the README
	// table, e.g. "this work [GSU19]".
	Display string

	// Summary is a one-line description for listings.
	Summary string

	// PaperStates and PaperTime are the protocol's asymptotic state and
	// time bounds as the paper's Table 1 states them.
	PaperStates string
	PaperTime   string

	// Elects reports whether the protocol solves leader election (its
	// stable configurations have exactly one leader-output agent).
	Elects bool

	// Clocked reports whether the protocol carries the junta-driven phase
	// clock, packed in the low byte of the state word — the contract the
	// clock-health instrumentation reads phases through.
	Clocked bool

	// MaxN caps the population sizes experiment sweeps run the protocol
	// at (the Θ(n²)-interaction slow protocol); 0 means unbounded.
	MaxN int

	// New constructs an instance for population size n.
	New func(n int, o Overrides) (Instance, error)
}

// DefaultGamma returns the phase-clock resolution the entry derives at
// population size n under the given override (0 for clockless protocols).
func (e Entry) DefaultGamma(n int, o Overrides) int {
	if !e.Clocked {
		return 0
	}
	if o.Gamma != 0 {
		return o.Gamma
	}
	return phaseclock.DefaultGamma(n)
}

// majoritySplit is the default initial split of the majority protocols:
// 60/40, comfortably outside approximate majority's √n·log n noise floor
// at every experiment size while keeping the exact protocols' Θ(n log n /
// margin) time moderate.
func majoritySplit(n int) int { return n - n*2/5 }

// registry is the single protocol table, in presentation order: the
// paper's protocol, its Table 1 baselines, the composed scenario
// protocols, then the standalone substrates.
var registry = []Entry{
	{
		Name:        "gsu19",
		Display:     "this work [GSU19]",
		Summary:     "the paper's space-optimal leader election (junta clock + synthetic-coin elimination + seniority backup)",
		PaperStates: "O(log log n)",
		PaperTime:   "O(log n·log log n) exp.",
		Elects:      true,
		Clocked:     true,
		New: func(n int, o Overrides) (Instance, error) {
			p := core.DefaultParams(n)
			applyGamma(&p.Gamma, o)
			if o.Phi != 0 {
				p.Phi = o.Phi
			}
			if o.Psi != 0 {
				p.Psi = o.Psi
			}
			pr, err := core.New(p)
			if err != nil {
				return Instance{}, err
			}
			return Instance{Protocol: pr.Words()}, nil
		},
	},
	{
		Name:        "gs18",
		Display:     "gs18 [GS18]",
		Summary:     "O(log² n) baseline: junta members are the candidates, clocked near-fair coin rounds halve them",
		PaperStates: "O(log log n)",
		PaperTime:   "O(log² n) whp",
		Elects:      true,
		Clocked:     true,
		New: func(n int, o Overrides) (Instance, error) {
			p := gs18.DefaultParams(n)
			applyGamma(&p.Gamma, o)
			if o.Phi != 0 {
				p.Phi = o.Phi
			}
			return instance(gs18.New(p))
		},
	},
	{
		Name:        "lottery",
		Display:     "lottery [BKKO18-style]",
		Summary:     "geometric-rank lottery with max-rank epidemic and GS18-style clocked tie-break",
		PaperStates: "O(log n)",
		PaperTime:   "O(log² n) whp",
		Elects:      true,
		Clocked:     true,
		New: func(n int, o Overrides) (Instance, error) {
			p := lottery.DefaultParams(n)
			applyGamma(&p.Gamma, o)
			return instance(lottery.New(p))
		},
	},
	{
		Name:        "sudo19",
		Display:     "sudo19 [SOIKM19-style]",
		Summary:     "clockless logarithmic-time leader election: geometric levels, timer-driven frontier raising, max-level epidemic",
		PaperStates: "O(log n)",
		PaperTime:   "O(log n) exp.",
		Elects:      true,
		New: func(n int, _ Overrides) (Instance, error) {
			return instance(sudo19.New(sudo19.DefaultParams(n)))
		},
	},
	{
		Name:        "slow",
		Display:     "slow [AAD+04]",
		Summary:     "the constant-state always-correct backup: two candidates meet, one survives",
		PaperStates: "O(1)",
		PaperTime:   "Θ(n)",
		Elects:      true,
		MaxN:        1 << 13, // Θ(n²) interactions: cap experiment sweeps
		New: func(n int, _ Overrides) (Instance, error) {
			return instance(slow.New(n))
		},
	},
	{
		Name:        "clockedmajority",
		Display:     "clocked-majority [composed]",
		Summary:     "exact majority with the conversion wave gated to the junta clock's late halves (compose-kit scenario)",
		PaperStates: "O(log log n)",
		PaperTime:   "O(log n/ε) exp.",
		Clocked:     true,
		New: func(n int, o Overrides) (Instance, error) {
			p := clockedmajority.DefaultParams(n)
			applyGamma(&p.Gamma, o)
			if o.Phi != 0 {
				p.Phi = o.Phi
			}
			return instance(clockedmajority.New(p))
		},
	},
	{
		Name:        "clockedbroadcast",
		Display:     "clocked-broadcast [composed]",
		Summary:     "one-way epidemic plus clocked termination detection: done after K junta-clock rounds informed (compose-kit scenario)",
		PaperStates: "O(log log n)",
		PaperTime:   "O(K·log n) whp",
		Clocked:     true,
		New: func(n int, o Overrides) (Instance, error) {
			p := clockedbroadcast.DefaultParams(n)
			applyGamma(&p.Gamma, o)
			if o.Phi != 0 {
				p.Phi = o.Phi
			}
			return instance(clockedbroadcast.New(p))
		},
	},
	{
		Name:        "exactmajority",
		Display:     "exact-majority [DV12]",
		Summary:     "4-state binary interval consensus: the initial majority always wins",
		PaperStates: "O(1)",
		PaperTime:   "Θ(n log n/margin)",
		New: func(n int, _ Overrides) (Instance, error) {
			return instance(exactmajority.New(n, majoritySplit(n)))
		},
	},
	{
		Name:        "approxmajority",
		Display:     "approx-majority [AAE08]",
		Summary:     "3-state approximate majority: the origin of the one-way epidemic technique",
		PaperStates: "O(1)",
		PaperTime:   "O(n log n)",
		New: func(n int, _ Overrides) (Instance, error) {
			return instance(approxmajority.New(n, majoritySplit(n)))
		},
	},
	{
		Name:        "epidemic",
		Display:     "epidemic [AAE08]",
		Summary:     "the one-way broadcast substrate: one source infects everyone",
		PaperStates: "O(1)",
		PaperTime:   "Θ(log n) whp",
		New: func(n int, _ Overrides) (Instance, error) {
			return instance(epidemic.New(n, 1))
		},
	},
}

func applyGamma(gamma *int, o Overrides) {
	if o.Gamma != 0 {
		*gamma = o.Gamma
	}
}

// All returns the registry in presentation order. Callers must treat it as
// read-only.
func All() []Entry { return registry }

// Names lists the registered protocol names in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for k, e := range registry {
		out[k] = e.Name
	}
	return out
}

// Lookup resolves a protocol name.
func Lookup(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// MustNew constructs a registered protocol instance, panicking on unknown
// names or invalid parameters — for experiment code whose configurations
// are validated upstream.
func MustNew(name string, n int, o Overrides) Instance {
	e, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("protocols: unknown protocol %q", name))
	}
	inst, err := e.New(n, o)
	if err != nil {
		panic(err)
	}
	return inst
}
