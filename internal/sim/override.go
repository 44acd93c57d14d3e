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
	// Initial returns the initial state of agent i.
	Initial func(i int) uint32
}

// NewOverride wraps proto with a custom initial configuration.
func NewOverride(proto Protocol, initial func(i int) uint32) *Override {
	return &Override{Inner: proto, Initial: initial}
}

// Name implements Protocol.
func (o *Override) Name() string { return o.Inner.Name() + "+override" }

// N implements Protocol.
func (o *Override) N() int { return o.Inner.N() }

// Init implements Protocol using the override.
func (o *Override) Init(i int) uint32 { return o.Initial(i) }

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
