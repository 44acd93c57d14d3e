package sim

// Override wraps a protocol and replaces its initial configuration. It is
// the tool for adversarial and failure-injection testing: start a protocol
// from a corrupted or mid-execution configuration and observe whether it
// still reaches its specification.
//
// The wrapped protocol's transition function, census and stability
// predicate are untouched.
type Override struct {
	// Inner is the wrapped protocol.
	Inner Protocol

	// states and counts are the replacement configuration's runs.
	states []uint32
	counts []int64
}

// NewOverride wraps proto with the initial configuration that starts agent
// i in initial(i). It reads initial once per agent, here, and keeps the
// maximal runs of equal states.
func NewOverride(proto Protocol, initial func(i int) uint32) *Override {
	o := &Override{Inner: proto}
	for i := 0; i < proto.N(); i++ {
		s := initial(i)
		if k := len(o.states) - 1; k >= 0 && o.states[k] == s {
			o.counts[k]++
			continue
		}
		o.states = append(o.states, s)
		o.counts = append(o.counts, 1)
	}
	return o
}

// Name implements Protocol.
func (o *Override) Name() string { return o.Inner.Name() + "+override" }

// N implements Protocol.
func (o *Override) N() int { return o.Inner.N() }

// Init implements Protocol using the override.
func (o *Override) Init(yield func(uint32, int64)) {
	for k, s := range o.states {
		yield(s, o.counts[k])
	}
}

// Delta implements Protocol.
func (o *Override) Delta(r, i uint32) (uint32, uint32) { return o.Inner.Delta(r, i) }

// NumClasses implements Protocol.
func (o *Override) NumClasses() int { return o.Inner.NumClasses() }

// Class implements Protocol.
func (o *Override) Class(s uint32) uint8 { return o.Inner.Class(s) }

// Leader implements Protocol.
func (o *Override) Leader(s uint32) bool { return o.Inner.Leader(s) }

// Stable implements Protocol.
func (o *Override) Stable(counts []int64) bool { return o.Inner.Stable(counts) }
