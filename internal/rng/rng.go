// Package rng provides a fast, deterministic pseudo-random number generator
// for population-protocol simulations.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded through SplitMix64
// so that any 64-bit seed yields a well-mixed state. It is not safe for
// concurrent use; simulations create one generator per trial via NewStream,
// which derives statistically independent streams from a base seed.
package rng

import (
	"encoding/binary"
	"fmt"
)

// Source is a xoshiro256++ pseudo-random generator. The zero value is not a
// valid generator; use New or NewStream.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances x by the SplitMix64 sequence and returns the next
// output. It is used only for seeding.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// NewStream returns a generator for the stream-th independent stream derived
// from seed. Distinct stream indices give generators whose state words are
// produced by disjoint portions of a SplitMix64 sequence, which is the
// standard way to split xoshiro-family seeds.
func NewStream(seed uint64, stream uint64) *Source {
	x := seed
	// Mix the stream index in through two SplitMix64 steps so that
	// (seed, stream) pairs map to well-separated seed points.
	x ^= splitMix64(&stream)
	x += 0x9e3779b97f4a7c15 * (stream + 1)
	return New(x)
}

// Seed resets the generator state from a 64-bit seed.
func (s *Source) Seed(seed uint64) {
	x := seed
	s.s0 = splitMix64(&x)
	s.s1 = splitMix64(&x)
	s.s2 = splitMix64(&x)
	s.s3 = splitMix64(&x)
	// The all-zero state is invalid for xoshiro; SplitMix64 outputs are
	// never all zero for four consecutive draws, but guard regardless.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	r := rotl(s.s0+s.s3, 23) + s.s0
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return r
}

// Split derives the shard-th child generator from the parent's current
// state without advancing the parent. The child's state words come from a
// SplitMix64 sequence keyed by a mix of all four parent state words and the
// shard index, so distinct shards (and distinct parent states) yield
// well-separated, statistically independent streams.
//
// The mapping is a pure function of (parent state, shard): calling Split
// repeatedly with the same shard returns identical children, and the fixed
// shard→stream mapping is what keeps sharded simulations byte-identical for
// a given worker count (see the counts engine's determinism contract).
// The child is returned by value, so splitting allocates nothing; callers
// keep it where its stream lives (a shard, the perturbation state).
func (s *Source) Split(shard uint64) Source {
	x := s.s0
	x ^= splitMix64(&shard) // mix the shard index first so shard 0 ≠ parent
	k := s.s1
	x ^= splitMix64(&k)
	k = s.s2
	x += splitMix64(&k)
	k = s.s3
	x ^= splitMix64(&k)
	var c Source
	c.Seed(x)
	return c
}

// SourceStateLen is the length in bytes of a Source state snapshot: four
// xoshiro256++ state words and a reserved 9-byte tail. The tail once held a
// cached normal variate and its spare flag; State writes it as zeros, and
// SetState checks only that the spare flag (byte 40) is 0 or 1, so
// snapshots written while the tail was in use still restore.
const SourceStateLen = 4*8 + 8 + 1

// State returns the complete generator state as a fixed-length byte
// snapshot. Restoring the snapshot with SetState — in this process or any
// other — yields a generator whose future output is identical to this one's.
// Split-derived children are covered automatically: Split is a pure function
// of the parent state, so a restored parent produces identical children.
func (s *Source) State() []byte {
	buf := make([]byte, SourceStateLen)
	binary.LittleEndian.PutUint64(buf[0:], s.s0)
	binary.LittleEndian.PutUint64(buf[8:], s.s1)
	binary.LittleEndian.PutUint64(buf[16:], s.s2)
	binary.LittleEndian.PutUint64(buf[24:], s.s3)
	return buf
}

// SetState restores a state snapshot previously produced by State. It
// rejects snapshots of the wrong length, snapshots whose xoshiro state words
// are all zero (the one invalid xoshiro256++ state), and a spare flag other
// than 0 or 1, leaving the generator untouched on error. The rest of the
// tail is ignored: no draw reads it.
func (s *Source) SetState(state []byte) error {
	if len(state) != SourceStateLen {
		return fmt.Errorf("rng: bad state length %d (want %d)", len(state), SourceStateLen)
	}
	s0 := binary.LittleEndian.Uint64(state[0:])
	s1 := binary.LittleEndian.Uint64(state[8:])
	s2 := binary.LittleEndian.Uint64(state[16:])
	s3 := binary.LittleEndian.Uint64(state[24:])
	if s0|s1|s2|s3 == 0 {
		return fmt.Errorf("rng: invalid state: all xoshiro words zero")
	}
	if state[40] > 1 {
		return fmt.Errorf("rng: invalid state: spare flag %d", state[40])
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
	return nil
}
