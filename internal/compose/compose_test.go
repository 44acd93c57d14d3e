package compose

import (
	"slices"
	"testing"

	"popelect/internal/phaseclock"
	"popelect/internal/sim"
)

func TestFieldOps(t *testing.T) {
	f := At(5, 3, 6)
	if f.Mask() != 0x7<<5 {
		t.Fatalf("mask %#x", f.Mask())
	}
	s := f.Set(0xffffffff, 0)
	if f.Get(s) != 0 || s != 0xffffffff&^uint32(0x7<<5) {
		t.Fatalf("Set/Get broken: %#x", s)
	}
	s = f.Set(0, 5)
	if f.Get(s) != 5 {
		t.Fatalf("Get = %d", f.Get(s))
	}
	if f.Clear(s) != 0 {
		t.Fatal("Clear broken")
	}
	flag := At(9, 1, 2)
	if flag.Bit() != 1<<9 || !flag.On(flag.Toggle(0)) || flag.On(flag.Toggle(flag.Bit())) {
		t.Fatal("flag ops broken")
	}
	if err := At(30, 4, 2).Valid(); err == nil {
		t.Fatal("field past bit 32 must be invalid")
	}
	if err := At(0, 2, 5).Valid(); err == nil {
		t.Fatal("cardinality beyond width must be invalid")
	}
}

func TestAllocSequentialAndOverflow(t *testing.T) {
	var a Alloc
	f1 := a.Bits(8, 200)
	f2 := a.Flag()
	f3 := a.Bits(4, 10)
	if f1.Shift != 0 || f2.Shift != 8 || f3.Shift != 9 || a.Used() != 13 {
		t.Fatalf("allocation shifts %d %d %d used %d", f1.Shift, f2.Shift, f3.Shift, a.Used())
	}
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
	a.Bits(20, 1<<19) // bits 13..32: overflow
	if a.Err() == nil {
		t.Fatal("word overflow must error")
	}
}

func TestSpaceEnumeration(t *testing.T) {
	f1 := At(0, 2, 3)
	f2 := At(2, 1, 2)
	tag := uint32(1 << 3)
	sp := NewSpace().
		Variant(0, f1.Dim(), f2.Dim()).
		Variant(tag, f1.DimRange(1, 2))
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Size() != 3*2+2 {
		t.Fatalf("Size = %d", sp.Size())
	}
	states := sp.States()
	if len(states) != sp.Size() {
		t.Fatalf("States() returned %d, Size %d", len(states), sp.Size())
	}
	seen := make(map[uint32]struct{})
	for _, s := range states {
		if _, dup := seen[s]; dup {
			t.Fatalf("duplicate %#x", s)
		}
		seen[s] = struct{}{}
	}
	for _, want := range []uint32{0, 1, 2, 4, 5, 6, tag | 1, tag | 2} {
		if _, ok := seen[want]; !ok {
			t.Fatalf("state %#x missing", want)
		}
	}
	// Overlapping dimension and base must be rejected.
	if err := NewSpace().Variant(0, f1.Dim(), At(1, 2, 4).Dim()).Validate(); err == nil {
		t.Fatal("overlapping dims must fail validation")
	}
	if err := NewSpace().Variant(1, f1.Dim()).Validate(); err == nil {
		t.Fatal("base overlapping a dim must fail validation")
	}
}

// counterModule is a minimal test module: a saturating counter that
// increments on every interaction.
type counterModule struct {
	c   Field
	max uint32
}

func (m *counterModule) Fields() []Field { return []Field{m.c} }
func (m *counterModule) Deliver(env Env, r, i uint32) (Env, uint32, uint32) {
	if v := m.c.Get(r); v < m.max {
		r = m.c.Set(r, v+1)
	}
	return env, r, i
}

func TestBuildAndDelta(t *testing.T) {
	var a Alloc
	c := a.Bits(3, 5)
	p, err := Build(Config{
		Name:       "counter",
		N:          4,
		Modules:    []Module{&counterModule{c: c, max: 4}},
		NumClasses: 2,
		Class: func(s uint32) uint8 {
			if c.Get(s) == 4 {
				return 1
			}
			return 0
		},
		Stable: func(counts []int64) bool { return counts[0] == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "counter" || p.N() != 4 || p.NumClasses() != 2 {
		t.Fatal("metadata broken")
	}
	if states, ends, err := sim.InitRuns(p); err != nil ||
		!slices.Equal(states, []uint32{0}) || !slices.Equal(ends, []int64{4}) {
		t.Fatalf("nil Init: runs %v %v, %v; want one run of the zero word", states, ends, err)
	}
	r, i := p.Delta(0, 0)
	if c.Get(r) != 1 || i != 0 {
		t.Fatalf("Delta = %#x, %#x", r, i)
	}
	if p.Leader(0) {
		t.Fatal("nil Leader must mean no leaders")
	}
	e, err := p.Enumerable()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.States()); got != 5 {
		t.Fatalf("generated enumeration has %d states, want 5", got)
	}

	// Invalid configurations fail Build.
	bad := []Config{
		{N: 4, Modules: []Module{&counterModule{c: c, max: 4}}, NumClasses: 1,
			Class: func(uint32) uint8 { return 0 }, Stable: func([]int64) bool { return false }},
		{Name: "x", N: 1, Modules: []Module{&counterModule{c: c, max: 4}}, NumClasses: 1,
			Class: func(uint32) uint8 { return 0 }, Stable: func([]int64) bool { return false }},
		{Name: "x", N: 4, NumClasses: 1,
			Class: func(uint32) uint8 { return 0 }, Stable: func([]int64) bool { return false }},
		{Name: "x", N: 4, Modules: []Module{&counterModule{c: c, max: 4}}},
		{Name: "x", N: 4, Modules: []Module{&counterModule{c: c, max: 4}, &counterModule{c: c, max: 4}},
			NumClasses: 1, Class: func(uint32) uint8 { return 0 }, Stable: func([]int64) bool { return false }},
	}
	for k, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Fatalf("bad config %d accepted", k)
		}
	}
}

func TestEnumerableCap(t *testing.T) {
	var a Alloc
	c := a.Bits(25, 1<<25)
	p := MustBuild(Config{
		Name:       "wide",
		N:          4,
		Modules:    []Module{&counterModule{c: c, max: 1}},
		NumClasses: 1,
		Class:      func(uint32) uint8 { return 0 },
		Stable:     func([]int64) bool { return true },
	})
	if _, err := p.Enumerable(); err == nil {
		t.Fatal("a 2²⁵-state space must refuse enumeration")
	}
}

func TestClockModulePublishesEnv(t *testing.T) {
	phase := At(0, 8, 8)
	clock := &Clock{Phase: phase, Gamma: 8, IsJunta: func(uint32) bool { return true }}
	// Junta responder at phase 7 meeting phase 7: CyclicMax(7, 7+1 mod 8=0)
	// → wraps to 0, a pass through 0 in the late half's end.
	env, r, _ := clock.Deliver(Env{}, 7, 7)
	if phase.Get(r) != 0 || !env.Passed {
		t.Fatalf("junta wrap: phase %d passed %t", phase.Get(r), env.Passed)
	}
	// Junta responder at phase 1 meeting phase 2: max_Γ(1, 2+1) = 3.
	env, r, _ = clock.Deliver(Env{}, 1, 2)
	if phase.Get(r) != 3 || env.Passed || env.Half != phaseclock.Early {
		t.Fatalf("junta advance: phase %d passed %t half %v", phase.Get(r), env.Passed, env.Half)
	}
	follower := &Clock{Phase: phase, Gamma: 8, IsJunta: func(uint32) bool { return false }}
	// Follower responder at phase 6 meeting phase 5: max_Γ(6, 5) = 6, late.
	env, r, _ = follower.Deliver(Env{}, 6, 5)
	if phase.Get(r) != 6 || env.Passed || env.Half != phaseclock.Late {
		t.Fatalf("follower: phase %d passed %t half %v", phase.Get(r), env.Passed, env.Half)
	}
}
