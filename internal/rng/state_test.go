package rng

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// sameOutput asserts a and b produce identical output for the next n
// draws.
func sameOutput(t *testing.T, a, b *Source, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: Uint64 %d != %d", i, got, want)
		}
	}
}

func TestStateRoundTripFresh(t *testing.T) {
	a := New(42)
	b := New(1) // deliberately different; SetState must overwrite it
	if err := b.SetState(a.State()); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	sameOutput(t, a, b, 200)
}

func TestStateRoundTripAdvanced(t *testing.T) {
	a := NewStream(7, 3)
	for i := 0; i < 1000; i++ {
		a.Uint64()
	}
	b := New(0xdead)
	if err := b.SetState(a.State()); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	sameOutput(t, a, b, 200)
}

func TestStateRoundTripSplitDerived(t *testing.T) {
	parent := New(99)
	parent.Uint64()
	child := parent.Split(5)
	child.Uint64()

	// Restoring the child directly round-trips.
	c2 := New(1)
	if err := c2.SetState(child.State()); err != nil {
		t.Fatalf("SetState(child): %v", err)
	}
	sameOutput(t, &child, c2, 100)

	// Restoring the parent reproduces identical future children: Split is a
	// pure function of the parent state.
	p2 := New(1)
	if err := p2.SetState(parent.State()); err != nil {
		t.Fatalf("SetState(parent): %v", err)
	}
	c9, d9 := parent.Split(9), p2.Split(9)
	sameOutput(t, &c9, &d9, 100)
}

// TestStateReservedTail pins the snapshot's 9-byte tail (bytes 32–40),
// which once held a cached normal variate and its spare flag: State writes
// it as zeros, and a snapshot with the flag set and a non-zero spare value
// restores to the same stream as one with a zero tail.
func TestStateReservedTail(t *testing.T) {
	a := NewStream(7, 3)
	a.Uint64()
	st := a.State()
	for i, b := range st[32:] {
		if b != 0 {
			t.Fatalf("State byte %d = %#x, want 0", 32+i, b)
		}
	}
	spare := append([]byte{}, st...)
	binary.LittleEndian.PutUint64(spare[32:], math.Float64bits(-1.25))
	spare[40] = 1
	b, c := New(1), New(2)
	if err := b.SetState(st); err != nil {
		t.Fatalf("SetState(flag 0): %v", err)
	}
	if err := c.SetState(spare); err != nil {
		t.Fatalf("SetState(flag 1): %v", err)
	}
	sameOutput(t, b, c, 200)
}

func TestSetStateRejectsBadInput(t *testing.T) {
	good := New(3).State()

	first := New(3).Uint64()
	cases := []struct {
		name  string
		state []byte
		want  string
	}{
		{"truncated", good[:SourceStateLen-1], "bad state length"},
		{"empty", nil, "bad state length"},
		{"oversized", append(append([]byte{}, good...), 0), "bad state length"},
		{"all-zero", make([]byte, SourceStateLen), "all xoshiro words zero"},
		{"bad-spare-flag", func() []byte {
			c := append([]byte{}, good...)
			c[40] = 7
			return c
		}(), "spare flag"},
	}
	for _, tc := range cases {
		s := New(3)
		err := s.SetState(tc.state)
		if err == nil {
			t.Fatalf("%s: SetState accepted invalid state", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// A failed SetState must leave the generator untouched.
		if s.Uint64() != first {
			t.Fatalf("%s: failed SetState modified the generator", tc.name)
		}
	}
}
