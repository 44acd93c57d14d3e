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

	// Init returns the initial state of agent i. Population protocols
	// typically start all agents in the same state, but the index allows
	// seeded initial configurations (e.g. majority with a given split).
	Init(i int) uint32

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
