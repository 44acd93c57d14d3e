// Package protocols is the unified protocol registry: every runnable
// population protocol in the repository — the paper's GSU19, the baselines
// it is measured against, the composed scenario protocols, and the
// standalone substrates — registered under one name with its constructor,
// parameter overrides, capability flags and table metadata. The registry is
// the single source the CLIs, the popelect API and the experiment harness
// resolve protocol names through; no consumer switches on protocol names
// itself.
//
// Every protocol runs over packed uint32 states, so an Instance is just the
// constructed sim.Protocol: consumers build engines, run trials and attach
// probes with package sim directly.
package protocols

import (
	"fmt"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

// Census is a census sample as probes receive it.
type Census = sim.CensusView

// Instance is a constructed registry protocol: the currency of the
// registry.
type Instance struct {
	// Protocol is the protocol the engines run.
	Protocol sim.Protocol
}

// instance wraps a constructor's result.
func instance(p sim.Protocol, err error) (Instance, error) {
	if err != nil {
		return Instance{}, err
	}
	return Instance{Protocol: p}, nil
}

// Engine creates a simulation engine on the chosen backend.
func (in Instance) Engine(src *rng.Source, b sim.Backend) (sim.Engine, error) {
	return sim.NewEngine(in.Protocol, src, b)
}

// AddProbe attaches a census probe to eng.
func (in Instance) AddProbe(eng sim.Engine, p sim.Probe, every uint64) error {
	return sim.AddProbe(eng, p, every)
}

// CensusOf returns eng's current census view.
func (in Instance) CensusOf(eng sim.Engine) (Census, error) { return sim.Census(eng) }

// VisitWords iterates a census view's occupied states.
func (in Instance) VisitWords(v Census, f func(word uint32, count int64)) error {
	v.VisitStates(f)
	return nil
}

// StateCount returns the size of the state enumeration (0 if the protocol
// has none).
func (in Instance) StateCount() int {
	// Compose-built protocols report the count arithmetically; only
	// hand-enumerated protocols materialize their (small) slices here.
	if c, ok := in.Protocol.(interface{ StateCount() int }); ok {
		return c.StateCount()
	}
	if e, ok := in.Protocol.(sim.Enumerable); ok {
		return len(e.States())
	}
	return 0
}

// CheckClosure runs the protocol densely to stabilization and verifies
// that every initial and reached state is contained in the enumeration —
// the state-space closure contract the counts backend's intern table
// relies on. It fails for non-enumerable protocols and for initial runs
// that sim.InitRuns rejects.
func (in Instance) CheckClosure(seed uint64) error {
	proto := in.Protocol
	e, ok := proto.(sim.Enumerable)
	if !ok {
		return fmt.Errorf("protocols: %s is not enumerable", proto.Name())
	}
	states := e.States()
	allowed := make(map[uint32]struct{}, len(states))
	for _, s := range states {
		if _, dup := allowed[s]; dup {
			return fmt.Errorf("protocols: %s enumerates state %v twice", proto.Name(), s)
		}
		allowed[s] = struct{}{}
	}
	initial, _, err := sim.InitRuns(proto)
	if err != nil {
		return err
	}
	for k, s := range initial {
		if _, ok := allowed[s]; !ok {
			return fmt.Errorf("protocols: %s initial state %v (run %d) not enumerated",
				proto.Name(), s, k)
		}
	}
	r := sim.NewRunner(proto, rng.New(seed))
	var firstErr error
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		if firstErr != nil {
			return
		}
		if _, ok := allowed[newR]; !ok {
			firstErr = fmt.Errorf("protocols: %s reached state %v at step %d outside States()",
				proto.Name(), newR, step)
		} else if _, ok := allowed[newI]; !ok {
			firstErr = fmt.Errorf("protocols: %s reached state %v at step %d outside States()",
				proto.Name(), newI, step)
		}
	})
	res := r.Run()
	if firstErr != nil {
		return firstErr
	}
	if !res.Converged {
		return fmt.Errorf("protocols: %s did not stabilize within %d interactions during the closure run",
			proto.Name(), res.Interactions)
	}
	return nil
}
