package sim

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"popelect/internal/core"
	"popelect/internal/protocols/exactmajority"
	"popelect/internal/rng"
)

// refCensus is an initial census built agent by agent, independently of
// the engine: the protocol's runs expanded to one map lookup per agent, ids
// in order of first appearance.
type refCensus struct {
	states  []uint32
	pop     []int64
	counts  []int64
	leaders int
}

func perAgentCensus(p Enumerable) refCensus {
	r := refCensus{counts: make([]int64, p.NumClasses())}
	index := make(map[uint32]int)
	p.Init(func(s uint32, c int64) {
		for ; c > 0; c-- {
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
	})
	return r
}

// loadCensus overwrites e's census with ref, every initial state active in
// id order, as if Reset had built it agent by agent.
func loadCensus(e *CountsEngine, ref refCensus) {
	e.states = slices.Clone(ref.states)
	e.index = make(map[uint32]int32)
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
func checkInitCensus(t *testing.T, label string, e *CountsEngine) {
	t.Helper()
	ref := perAgentCensus(e.proto)
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
func (p interleaved) Init(yield func(uint32, int64)) {
	for i := 0; i < p.n-1; i++ {
		yield(interleavedRuns[i%len(interleavedRuns)], 1)
	}
	yield(ilE, 1)
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
	gsu19 := core.MustNew(core.DefaultParams(1 << 12)).Words()
	majority, err := exactmajority.New(1000, 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Enumerable{majority, interleaved{n: 4*len(interleavedRuns) + 1}} {
		t.Run(p.Name(), func(t *testing.T) {
			e := NewCountsEngine(p, rng.New(seed))
			checkInitCensus(t, "counts", e)
			ref := NewCountsEngine(p, rng.New(seed))
			loadCensus(ref, perAgentCensus(p))
			sameSnapshots(t, e, ref)
		})
	}
	t.Run("gsu19", func(t *testing.T) {
		e := NewCountsEngine(gsu19, rng.New(seed))
		checkInitCensus(t, "counts", e)
		if len(e.states) != 1 {
			t.Fatalf("uniform init: %d initial states", len(e.states))
		}
		ref := NewCountsEngine(gsu19, rng.New(seed))
		loadCensus(ref, perAgentCensus(gsu19))
		sameSnapshots(t, e, ref)
	})
}

// sameSnapshots compares e's and ref's snapshots at step 0 and again after
// a short exact-mode run of both.
func sameSnapshots(t *testing.T, e, ref Engine) {
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

// runsFixture is a protocol whose initial configuration is the given
// (state, count) runs, verbatim, valid or not. Its transitions are the
// identity: it exercises the engines' read of the runs, not a dynamics.
type runsFixture struct {
	n    int
	runs [][2]int64
}

func (p runsFixture) Name() string { return "runsFixture" }
func (p runsFixture) N() int       { return p.n }
func (p runsFixture) Init(yield func(uint32, int64)) {
	for _, r := range p.runs {
		yield(uint32(r[0]), r[1])
	}
}
func (p runsFixture) Delta(r, i uint32) (uint32, uint32) { return r, i }
func (p runsFixture) NumClasses() int                    { return 2 }
func (p runsFixture) Class(s uint32) uint8               { return uint8(s & 1) }
func (p runsFixture) Leader(s uint32) bool               { return s == 3 }
func (p runsFixture) Stable([]int64) bool                { return false }
func (p runsFixture) States() []uint32                   { return []uint32{0, 1, 2, 3} }

// TestInitRunsRejectInvalid checks the one validated read of Init: a
// negative run, or runs that sum to N ± 1, are an error from InitRuns that
// names the protocol, and a panic from both engine constructors.
func TestInitRunsRejectInvalid(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs [][2]int64
	}{
		{"negative", [][2]int64{{0, 12}, {1, -2}}},
		{"short", [][2]int64{{0, 6}, {1, 3}}},
		{"long", [][2]int64{{0, 6}, {1, 5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := runsFixture{n: 10, runs: tc.runs}
			_, _, err := InitRuns(p)
			if err == nil || !strings.Contains(err.Error(), p.Name()) {
				t.Fatalf("InitRuns error %v, want one naming %s", err, p.Name())
			}
			for name, build := range map[string]func(){
				"counts": func() { NewCountsEngine(p, rng.New(1)) },
				"dense":  func() { NewRunner(p, rng.New(1)) },
			} {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), p.Name()) {
							t.Errorf("%s: recovered %v, want a panic naming %s", name, r, p.Name())
						}
					}()
					build()
				}()
			}
		})
	}
}

// TestInitRunsSkipEmpty checks that a zero-count run takes no id: an
// exact majority with no X agents (or no Y agents) indexes its one
// occupied state, as the agent-by-agent census does, on both engines.
func TestInitRunsSkipEmpty(t *testing.T) {
	for _, x := range []int{0, 1000} {
		p, err := exactmajority.New(1000, x)
		if err != nil {
			t.Fatal(err)
		}
		want := exactmajority.StrongY
		if x > 0 {
			want = exactmajority.StrongX
		}
		e := NewCountsEngine(p, rng.New(1))
		checkInitCensus(t, fmt.Sprintf("x=%d", x), e)
		if !slices.Equal(e.states, []uint32{want}) || len(e.index) != 1 {
			t.Fatalf("x=%d: states %v, index %v; want only %d", x, e.states, e.index, want)
		}
		r := NewRunner(p, rng.New(1))
		got := map[uint32]int64{}
		r.Census().VisitStates(func(s uint32, c int64) { got[s] += c })
		if len(got) != 1 || got[want] != 1000 || !slices.Equal(r.Counts(), e.Counts()) {
			t.Fatalf("x=%d: dense census %v, classes %v; want %d agents in %d, classes %v",
				x, got, r.Counts(), 1000, want, e.Counts())
		}
	}
}

// TestInitConfigAt pins the join lookup at every run boundary: agent i is
// in the state of the run whose half-open range holds it.
func TestInitConfigAt(t *testing.T) {
	states, ends, err := InitRuns(runsFixture{n: 10, runs: [][2]int64{{2, 3}, {0, 0}, {1, 1}, {3, 6}}})
	if err != nil {
		t.Fatal(err)
	}
	c := initConfig{states, ends}
	want := []uint32{2, 2, 2, 1, 3, 3, 3, 3, 3, 3}
	for i, s := range want {
		if got := c.at(uint64(i)); got != s {
			t.Fatalf("agent %d: state %d, want %d", i, got, s)
		}
	}
}

// TestCountsSetupCostsRunsNotAgents builds a counts engine over three runs
// at n = 10¹², where any per-agent pass would run for the better part of
// an hour, and checks its census against the runs: setup costs one index
// lookup per run.
func TestCountsSetupCostsRunsNotAgents(t *testing.T) {
	const n = 1_000_000_000_000
	p := runsFixture{n: n, runs: [][2]int64{{3, n / 4}, {0, n / 2}, {3, n - n/4 - n/2}}}
	e := NewCountsEngine(p, rng.New(1))
	// Class is the state's low bit: state 0 is class 0, state 3 class 1.
	if want := []int64{n / 2, n - n/2}; !slices.Equal(e.Counts(), want) {
		t.Fatalf("Counts() %v, want %v", e.Counts(), want)
	}
	if e.Leaders() != n-n/2 {
		t.Fatalf("Leaders() %d, want %d", e.Leaders(), n-n/2)
	}
	got := map[uint32]int64{}
	v := e.Census()
	v.VisitStates(func(s uint32, c int64) { got[s] += c })
	if v.N() != n || len(got) != 2 || got[3] != n-n/2 || got[0] != n/2 {
		t.Fatalf("census N %d, states %v; want %d agents, 3: %d, 0: %d", v.N(), got, int64(n), n-n/2, n/2)
	}
	if !slices.Equal(e.states, []uint32{3, 0}) {
		t.Fatalf("ids %v, want first-appearance order [3 0]", e.states)
	}
}
