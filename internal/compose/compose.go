// Package compose is the protocol construction kit: population protocols in
// this repository are compositions of a small set of mechanisms — a
// junta-driven phase clock relaying through every interaction, junta level
// formation, parity synthetic coins, clocked coin-flip rounds with epidemic
// broadcast, and candidate duels — packed side by side into one uint32 state
// word. The kit makes that structure explicit:
//
//   - Field/Alloc describe the packed bit layout of the state word, one
//     field per mechanism datum (phase, level, flip, …).
//   - Module is one mechanism: it owns a set of fields and applies its
//     transition rules to the responder word, communicating with the other
//     modules of an interaction through Env (the clock's pass/half signal,
//     the synthetic-coin read).
//   - Build assembles modules into a sim.Protocol; Enumerable
//     derives the finite state-space enumeration the counts backend needs
//     from the declared field ranges (see Space), replacing hand-written
//     nested enumeration loops.
//
// The shared modules (Clock, Parity, Levels, Rounds, Duel) reproduce the
// mechanism implementations of the GS18 and lottery baselines bit for bit —
// the recomposed protocols replay historical traces byte-identically — and
// the paper's core protocol consumes Clock and Levels directly for its
// phase relay and coin preprocessing. New scenario protocols are built by
// picking modules and adding a protocol-specific one (see
// internal/protocols/clockedmajority and clockedbroadcast, and the
// "Composing a new protocol" walkthrough in the README).
package compose

import "fmt"

// Field is one packed bit field of the uint32 state word. Construct
// fields with At or an Alloc (which precompute the masks the accessors
// run on); the zero value is unusable.
type Field struct {
	// Shift is the field's bit offset in the word.
	Shift uint8
	// Width is the field's width in bits.
	Width uint8
	// Card is the number of values the field takes in reachable states:
	// 0..Card−1. It may be smaller than the 2^Width the bits could hold
	// (e.g. an 8-bit phase field driving a Γ = 40 clock); the state-space
	// enumeration ranges over Card, not the raw bits.
	Card uint32

	// Cached masks: the accessors sit on every simulated interaction's
	// hot path, so the shift arithmetic is done once at construction.
	mask  uint32 // (1<<Width − 1) << Shift
	vmask uint32 // 1<<Width − 1
}

// At constructs a field at an explicit bit position — for protocols whose
// layout is fixed by history or by role-dependent overlays (the core
// protocol's payload bits). New flat layouts should use Alloc instead.
func At(shift, width uint8, card uint32) Field {
	vmask := uint32(1)<<width - 1
	return Field{Shift: shift, Width: width, Card: card, mask: vmask << shift, vmask: vmask}
}

// Mask returns the field's bit mask within the word.
func (f Field) Mask() uint32 { return f.mask }

// Get extracts the field's value.
func (f Field) Get(s uint32) uint32 { return s >> f.Shift & f.vmask }

// Set returns s with the field replaced by v (v must fit the width).
func (f Field) Set(s, v uint32) uint32 { return s&^f.mask | v<<f.Shift }

// Clear returns s with the field zeroed.
func (f Field) Clear(s uint32) uint32 { return s &^ f.mask }

// On reports whether the field holds a nonzero value (flag read).
func (f Field) On(s uint32) bool { return s&f.mask != 0 }

// Bit returns the field's lowest bit — the flag constant of a width-1
// field.
func (f Field) Bit() uint32 { return 1 << f.Shift }

// Toggle flips a width-1 field.
func (f Field) Toggle(s uint32) uint32 { return s ^ f.Bit() }

// Valid reports field consistency: nonzero width inside the word and a
// cardinality the bits can hold.
func (f Field) Valid() error {
	if f.Width == 0 || int(f.Shift)+int(f.Width) > 32 {
		return fmt.Errorf("compose: field [%d..%d) outside the 32-bit word", f.Shift, int(f.Shift)+int(f.Width))
	}
	if f.Card == 0 || (f.Width < 32 && f.Card > 1<<f.Width) {
		return fmt.Errorf("compose: field at bit %d holds %d values in %d bits", f.Shift, f.Card, f.Width)
	}
	return nil
}

// Alloc hands out consecutive bit fields of the state word, low bits first.
// Allocation order is the packing order, so a protocol rebuilt on the kit
// preserves its historical layout by allocating fields in the historical
// sequence. The zero value allocates from bit 0.
type Alloc struct {
	next int
	err  error
}

// Bits allocates a width-bit field enumerating card values.
func (a *Alloc) Bits(width uint8, card uint32) Field {
	f := At(uint8(a.next), width, card)
	if a.err == nil {
		if a.next+int(width) > 32 {
			a.err = fmt.Errorf("compose: state word overflow at bit %d + %d", a.next, width)
			return f
		}
		a.err = f.Valid()
	}
	a.next += int(width)
	return f
}

// Flag allocates a 1-bit boolean field.
func (a *Alloc) Flag() Field { return a.Bits(1, 2) }

// Used returns the number of bits allocated so far.
func (a *Alloc) Used() int { return a.next }

// Err returns the first allocation error (word overflow or a bad field).
func (a *Alloc) Err() error { return a.err }
