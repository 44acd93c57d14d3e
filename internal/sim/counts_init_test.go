package sim

import (
	"bytes"
	"slices"
	"testing"

	"popelect/internal/core"
	"popelect/internal/protocols/exactmajority"
	"popelect/internal/rng"
)

// refCensus is an initial census built agent by agent, independently of
// the engine: one map lookup per agent, ids in order of first appearance.
type refCensus[S comparable] struct {
	states  []S
	pop     []int64
	counts  []int64
	leaders int
}

func perAgentCensus[S comparable](p Enumerable[S]) refCensus[S] {
	r := refCensus[S]{counts: make([]int64, p.NumClasses())}
	index := make(map[S]int)
	for i := 0; i < p.N(); i++ {
		s := p.Init(i)
		id, ok := index[s]
		if !ok {
			id = len(r.states)
			index[s] = id
			r.states = append(r.states, s)
			r.pop = append(r.pop, 0)
		}
		r.pop[id]++
		r.counts[p.Class(s)]++
		if p.Leader(s) {
			r.leaders++
		}
	}
	return r
}

// loadCensus overwrites e's census with ref, every initial state active in
// id order, as if Reset had built it agent by agent.
func loadCensus[S comparable](e *CountsEngine[S], ref refCensus[S]) {
	e.states = slices.Clone(ref.states)
	e.index = make(map[S]int32)
	e.classOf, e.leaderOf, e.active, e.activePos = nil, nil, nil, nil
	for id, s := range ref.states {
		e.index[s] = int32(id)
		e.classOf = append(e.classOf, e.proto.Class(s))
		e.leaderOf = append(e.leaderOf, e.proto.Leader(s))
		e.active = append(e.active, int32(id))
		e.activePos = append(e.activePos, int32(id))
	}
	e.pop = slices.Clone(ref.pop)
	e.diff = make([]int64, len(ref.states))
	e.classCounts = slices.Clone(ref.counts)
	e.leaders = int64(ref.leaders)
	e.delta.Reset(e.stateBound)
	e.delta.Grow(len(ref.states))
	e.rebuildFenwick()
}

// checkInitCensus compares e's initial census with the agent-by-agent
// reference for its protocol.
func checkInitCensus[S comparable](t *testing.T, label string, e *CountsEngine[S]) {
	t.Helper()
	ref := perAgentCensus[S](e.proto)
	if !slices.Equal(e.states, ref.states) {
		t.Fatalf("%s: states order %v, want first-appearance order %v", label, e.states, ref.states)
	}
	if !slices.Equal(e.pop, ref.pop) {
		t.Fatalf("%s: pop %v, want %v", label, e.pop, ref.pop)
	}
	if len(e.active) != len(ref.states) {
		t.Fatalf("%s: %d active states, want %d", label, len(e.active), len(ref.states))
	}
	for id := range ref.states {
		if int(e.active[id]) != id || int(e.activePos[id]) != id {
			t.Fatalf("%s: active %v / activePos %v, want id order", label, e.active, e.activePos)
		}
	}
	if !slices.Equal(e.Counts(), ref.counts) {
		t.Fatalf("%s: Counts() %v, want %v", label, e.Counts(), ref.counts)
	}
	if e.Leaders() != ref.leaders {
		t.Fatalf("%s: Leaders() %d, want %d", label, e.Leaders(), ref.leaders)
	}
}

// interleaved is a five-state fixture whose initial states come in runs
// A A B A C C B B A D A A, repeated, with a lone E at the last index. Its
// first-appearance order (A B C D E) is not the states' numeric order, so
// sorting ids by value would show.
type interleaved struct{ n int }

const (
	ilA uint32 = 3
	ilB uint32 = 0
	ilC uint32 = 4
	ilD uint32 = 1
	ilE uint32 = 2
)

var interleavedRuns = []uint32{ilA, ilA, ilB, ilA, ilC, ilC, ilB, ilB, ilA, ilD, ilA, ilA}

func (p interleaved) Name() string { return "interleaved" }
func (p interleaved) N() int       { return p.n }
func (p interleaved) Init(i int) uint32 {
	if i == p.n-1 {
		return ilE
	}
	return interleavedRuns[i%len(interleavedRuns)]
}
func (p interleaved) Delta(r, i uint32) (uint32, uint32) { return (r + i) % 5, i }
func (p interleaved) NumClasses() int                    { return 3 }
func (p interleaved) Class(s uint32) uint8               { return uint8(s % 3) }
func (p interleaved) Leader(s uint32) bool               { return s == ilA || s == ilE }
func (p interleaved) Stable([]int64) bool                { return false }
func (p interleaved) States() []uint32                   { return []uint32{0, 1, 2, 3, 4} }

// TestCountsInitRunsMatchPerAgentCensus pins Reset's run-length census to
// the agent-by-agent one: the same ids in the same first-appearance order,
// the same counts, active list, class census and leader count, and a
// step-0 snapshot (and a short trajectory) byte-identical to an engine
// whose census was loaded from the reference.
func TestCountsInitRunsMatchPerAgentCensus(t *testing.T) {
	const seed = 7
	gsu19 := core.MustNew(core.DefaultParams(1 << 12))
	majority, err := exactmajority.New(1000, 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Enumerable[uint32]{majority, interleaved{n: 4*len(interleavedRuns) + 1}} {
		t.Run(p.Name(), func(t *testing.T) {
			e := NewCountsEngine[uint32](p, rng.New(seed))
			checkInitCensus(t, "counts", e)
			ref := NewCountsEngine[uint32](p, rng.New(seed))
			loadCensus(ref, perAgentCensus[uint32](p))
			sameSnapshots(t, e, ref)
		})
	}
	t.Run("gsu19", func(t *testing.T) {
		e := NewCountsEngine[core.State](gsu19, rng.New(seed))
		checkInitCensus(t, "counts", e)
		if len(e.states) != 1 {
			t.Fatalf("uniform init: %d initial states", len(e.states))
		}
		ref := NewCountsEngine[core.State](gsu19, rng.New(seed))
		loadCensus(ref, perAgentCensus[core.State](gsu19))
		sameSnapshots(t, e, ref)
	})
}

// sameSnapshots compares e's and ref's snapshots at step 0 and again after
// a short exact-mode run of both.
func sameSnapshots(t *testing.T, e, ref interface {
	Engine
	Checkpointable
}) {
	t.Helper()
	for _, steps := range []uint64{0, 2000} {
		e.RunSteps(steps)
		ref.RunSteps(steps)
		a, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("snapshot after %d steps differs from the per-agent reference's", steps)
		}
	}
}
