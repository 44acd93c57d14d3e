// Package sim implements the probabilistic population-protocol execution
// model of Angluin et al. (PODC 2004), as used by the paper: a population of
// n indistinguishable agents, a uniform random scheduler that draws one
// ordered pair (responder, initiator) per step, and a deterministic
// transition function applied to the pair.
//
// An agent state is one uint32 word. The protocols simulated here need only
// O(log log n) states per agent (the paper's GSU19, its GS18 baseline), or a
// few dozen bits at most (the composed kit protocols), so every protocol
// packs its state into one word. One fixed word keeps the population a flat
// []uint32, lets the counts engine, census views and checkpoints be written
// once over concrete types, and serializes states as indices into the
// protocol's enumeration (see the checkpoint codec).
package sim

import (
	"fmt"
	"slices"
)

// Protocol describes a population protocol over packed uint32 states.
//
// Implementations must be pure: Delta must depend only on its arguments,
// never on mutable protocol fields, so that runs are reproducible and
// trials can execute concurrently while sharing one Protocol value.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string

	// N returns the population size the protocol was configured for.
	N() int

	// Init states the initial configuration as runs, in agent order:
	// agents [0, c₀) start in s₀, the next c₁ agents in s₁, and so on. The
	// counts must be non-negative and sum to N(); zero-count runs are
	// skipped. Agents are indistinguishable, so a configuration is a
	// handful of (state, count) runs: most protocols start every agent in
	// one state, and seeded configurations (majority with a given split)
	// need two.
	Init(yield func(s uint32, count int64))

	// Delta is the transition function for one interaction. The first
	// argument is the responder, the second the initiator (the paper's
	// ordered-pair convention). It returns their successor states.
	Delta(responder, initiator uint32) (uint32, uint32)

	// NumClasses returns how many census classes Class may return.
	NumClasses() int

	// Class maps a state to a small census class index in
	// [0, NumClasses()). The runner maintains per-class counts
	// incrementally; Stable receives them.
	Class(uint32) uint8

	// Leader reports whether a state maps to the leader output.
	Leader(uint32) bool

	// Stable reports whether a configuration with the given class counts
	// has stabilized: the output of every agent can no longer change.
	// Implementations must make this predicate absorbing — once true for
	// a reachable configuration it must remain true for all successor
	// configurations — because the runner stops at the first hit.
	Stable(counts []int64) bool
}

// Output is the two-valued output map of leader election.
type Output uint8

// Leader election outputs.
const (
	Follower Output = iota
	Leader
)

func (o Output) String() string {
	if o == Leader {
		return "leader"
	}
	return "follower"
}

// InitRuns reads p's initial configuration (see Protocol.Init) and returns
// its non-empty runs: agents [ends[k-1], ends[k]) start in states[k], with
// ends[-1] = 0. It returns an error naming the protocol on a negative count
// or on counts that do not sum to N().
func InitRuns(p Protocol) (states []uint32, ends []int64, err error) {
	n, total := int64(p.N()), int64(0)
	p.Init(func(s uint32, c int64) {
		switch {
		case err != nil:
		case c < 0:
			err = fmt.Errorf("sim: %s: initial run of state %d has negative count %d", p.Name(), s, c)
		case c > n-total:
			err = fmt.Errorf("sim: %s: initial runs hold more than N() = %d agents", p.Name(), n)
		case c > 0:
			total += c
			states = append(states, s)
			ends = append(ends, total)
		}
	})
	if err == nil && total != n {
		err = fmt.Errorf("sim: %s: initial runs hold %d agents, want N() = %d", p.Name(), total, n)
	}
	return states, ends, err
}

// initConfig is a protocol's validated initial configuration: the runs of
// InitRuns.
type initConfig struct {
	states []uint32
	ends   []int64
}

// at returns the initial state of agent i: the state of the run holding it.
func (c initConfig) at(i uint64) uint32 {
	k, _ := slices.BinarySearch(c.ends, int64(i)+1)
	return c.states[k]
}

// runs visits the runs in agent order as half-open agent ranges.
func (c initConfig) runs(visit func(s uint32, start, end int64)) {
	start := int64(0)
	for k, s := range c.states {
		visit(s, start, c.ends[k])
		start = c.ends[k]
	}
}
