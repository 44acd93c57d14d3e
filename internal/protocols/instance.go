// Package protocols is the unified protocol registry: every runnable
// population protocol in the repository — the paper's GSU19, the baselines
// it is measured against, the composed scenario protocols, and the
// standalone substrates — registered under one name with its constructor,
// parameter overrides, capability flags and table metadata. The registry is
// the single source the CLIs, the popelect API and the experiment harness
// resolve protocol names through; no consumer switches on protocol names
// itself.
//
// Because sim.Protocol is generic over the packed state type, registry
// consumers work with Instance, a state-type-erased handle that can build
// engines, run trial batches, attach census probes and validate the
// state-space enumeration without knowing the state type.
package protocols

import (
	"fmt"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

// Census is the state-type-erased view of a census sample — the subset of
// sim.CensusView that does not mention the state type. Probes registered
// through an Instance receive it; consumers that need the packed words
// (clock-phase instrumentation) go through Instance.VisitWords.
type Census interface {
	// Step is the interaction count of the sample.
	Step() uint64
	// N is the population size.
	N() int
	// Occupied is the number of distinct states with a nonzero count.
	Occupied() int
	// Classes is the per-class census (read-only).
	Classes() []int64
	// Leaders is the number of leader-output agents.
	Leaders() int
}

// Probe observes the census periodically through an Instance: it fires at
// every multiple of its registration interval plus once at the end of Run,
// exactly like sim.Probe.
type Probe func(step uint64, v Census)

// TrialProbe attaches one probe to every trial of Instance.Trials; the
// erased counterpart of sim.TrialProbe.
type TrialProbe struct {
	Every uint64
	Make  func(trial int) Probe
}

// Instance is a constructed protocol with the state type erased: the
// currency of the registry. All engine-building, trial-running and
// census-probing goes through it, so registry consumers (CLIs, popelect,
// experiments) need no protocol-specific generics.
type Instance interface {
	// Name identifies the protocol instance (sim.Protocol.Name).
	Name() string

	// N is the configured population size.
	N() int

	// Engine creates a simulation engine on the chosen backend
	// (sim.NewEngine under the erasure).
	Engine(src *rng.Source, b sim.Backend) (sim.Engine, error)

	// TrialEngine creates an engine configured by cfg (sim.NewTrialEngine
	// under the erasure): backend, budget, batch policy,
	// engine workers, state tracking and perturbation.
	TrialEngine(src *rng.Source, cfg sim.TrialConfig) (sim.Engine, error)

	// AddProbe attaches a census probe to an engine built by Engine or
	// TrialEngine.
	AddProbe(eng sim.Engine, p Probe, every uint64) error

	// CensusOf returns an engine's current census view.
	CensusOf(eng sim.Engine) (Census, error)

	// VisitWords iterates a census view's occupied states as packed
	// uint32 words. It fails for protocols without a word view.
	VisitWords(v Census, f func(word uint32, count int64)) error

	// Trials runs independent trials through sim.RunTrialsProbed.
	Trials(cfg sim.TrialConfig, probes ...TrialProbe) ([]sim.Result, error)

	// Enumerable reports whether the protocol carries a finite
	// state-space enumeration (the counts-backend capability).
	Enumerable() bool

	// StateCount returns the size of the enumeration (0 if none).
	StateCount() int

	// CheckClosure runs the protocol densely to stabilization and
	// verifies that every initial and reached state is contained in the
	// enumeration — the state-space closure contract the counts backend's
	// intern table relies on. It fails for non-enumerable protocols.
	CheckClosure(seed uint64) error
}

// wrap erases a typed protocol into an Instance. word converts a packed
// state to its uint32 word for VisitWords (nil: no word view).
func wrap[S comparable, P sim.Protocol[S]](proto P, word func(S) uint32) Instance {
	return &instance[S, P]{proto: proto, word: word}
}

type instance[S comparable, P sim.Protocol[S]] struct {
	proto P
	word  func(S) uint32
}

func (in *instance[S, P]) Name() string { return in.proto.Name() }
func (in *instance[S, P]) N() int       { return in.proto.N() }

func (in *instance[S, P]) Engine(src *rng.Source, b sim.Backend) (sim.Engine, error) {
	return sim.NewEngine[S, P](in.proto, src, b)
}

func (in *instance[S, P]) TrialEngine(src *rng.Source, cfg sim.TrialConfig) (sim.Engine, error) {
	return sim.NewTrialEngine[S, P](in.proto, src, cfg)
}

func (in *instance[S, P]) AddProbe(eng sim.Engine, p Probe, every uint64) error {
	return sim.AddProbe[S](eng, func(step uint64, v sim.CensusView[S]) { p(step, v) }, every)
}

func (in *instance[S, P]) CensusOf(eng sim.Engine) (Census, error) {
	return sim.Census[S](eng)
}

func (in *instance[S, P]) VisitWords(v Census, f func(word uint32, count int64)) error {
	if in.word == nil {
		return fmt.Errorf("protocols: %s has no packed-word view", in.proto.Name())
	}
	cv, ok := v.(sim.CensusView[S])
	if !ok {
		return fmt.Errorf("protocols: census view %T is not over %s's state type", v, in.proto.Name())
	}
	cv.VisitStates(func(s S, count int64) { f(in.word(s), count) })
	return nil
}

func (in *instance[S, P]) Trials(cfg sim.TrialConfig, probes ...TrialProbe) ([]sim.Result, error) {
	tps := make([]sim.TrialProbe[S], 0, len(probes))
	for _, tp := range probes {
		if tp.Make == nil {
			continue
		}
		mk := tp.Make
		tps = append(tps, sim.TrialProbe[S]{
			Every: tp.Every,
			Make: func(trial int) sim.Probe[S] {
				p := mk(trial)
				return func(step uint64, v sim.CensusView[S]) { p(step, v) }
			},
		})
	}
	return sim.RunTrialsProbed[S, P](func(int) P { return in.proto }, cfg, tps...)
}

func (in *instance[S, P]) Enumerable() bool {
	_, ok := any(in.proto).(sim.Enumerable[S])
	return ok
}

func (in *instance[S, P]) StateCount() int {
	// Compose-built protocols report the count arithmetically; only
	// hand-enumerated protocols materialize their (small) slices here.
	if c, ok := any(in.proto).(interface{ StateCount() int }); ok {
		return c.StateCount()
	}
	if e, ok := any(in.proto).(sim.Enumerable[S]); ok {
		return len(e.States())
	}
	return 0
}

func (in *instance[S, P]) CheckClosure(seed uint64) error {
	e, ok := any(in.proto).(sim.Enumerable[S])
	if !ok {
		return fmt.Errorf("protocols: %s is not enumerable", in.proto.Name())
	}
	states := e.States()
	allowed := make(map[S]struct{}, len(states))
	for _, s := range states {
		if _, dup := allowed[s]; dup {
			return fmt.Errorf("protocols: %s enumerates state %v twice", in.proto.Name(), s)
		}
		allowed[s] = struct{}{}
	}
	for i := 0; i < in.proto.N(); i++ {
		if _, ok := allowed[in.proto.Init(i)]; !ok {
			return fmt.Errorf("protocols: %s initial state %v of agent %d not enumerated",
				in.proto.Name(), in.proto.Init(i), i)
		}
	}
	r := sim.NewRunner[S, P](in.proto, rng.New(seed))
	var firstErr error
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI S) {
		if firstErr != nil {
			return
		}
		if _, ok := allowed[newR]; !ok {
			firstErr = fmt.Errorf("protocols: %s reached state %v at step %d outside States()",
				in.proto.Name(), newR, step)
		} else if _, ok := allowed[newI]; !ok {
			firstErr = fmt.Errorf("protocols: %s reached state %v at step %d outside States()",
				in.proto.Name(), newI, step)
		}
	})
	res := r.Run()
	if firstErr != nil {
		return firstErr
	}
	if !res.Converged {
		return fmt.Errorf("protocols: %s did not stabilize within %d interactions during the closure run",
			in.proto.Name(), res.Interactions)
	}
	return nil
}
