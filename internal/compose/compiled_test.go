package compose

import (
	"testing"

	"popelect/internal/rng"
)

// mixer is a deliberately wide toy module: the responder mixes the
// initiator's value into its own field. With a 10-bit field it discovers
// more than the memo's initial 256-word stride, exercising table growth.
type mixer struct{ F Field }

func (m *mixer) Fields() []Field { return []Field{m.F} }

func (m *mixer) Deliver(env Env, r, i uint32) (Env, uint32, uint32) {
	rv, iv := m.F.Get(r), m.F.Get(i)
	r = m.F.Set(r, (rv*3+iv*7+1)%m.F.Card)
	if iv == rv {
		i = m.F.Set(i, (iv+1)%m.F.Card)
	}
	return env, r, i
}

func testProtocol(t *testing.T, width uint8, card uint32) *Protocol {
	t.Helper()
	p, err := Build(Config{
		Name:       "compiled-test",
		N:          100,
		Modules:    []Module{&mixer{F: At(0, width, card)}},
		NumClasses: 2,
		Class:      func(s uint32) uint8 { return uint8(s & 1) },
		Stable:     func([]int64) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWordBound(t *testing.T) {
	p := testProtocol(t, 10, 1000)
	if got := p.Space().WordBound(); got != 1<<10 {
		t.Fatalf("WordBound = %d, want %d", got, 1<<10)
	}
	tag := uint32(1 << 12)
	sp := NewSpace().
		Variant(0, At(0, 3, 8).Dim()).
		Variant(tag, At(4, 2, 4).Dim())
	if got, want := sp.WordBound(), uint64(tag|0x7|0x3<<4)+1; got != want {
		t.Fatalf("WordBound = %d, want %d", got, want)
	}
}

func TestCompiledDeltaMatchesInterpreted(t *testing.T) {
	// 10-bit field: 1024 words, beyond the 256-word initial stride, so the
	// memo grows (and re-memoizes) mid-test.
	p := testProtocol(t, 10, 1000)
	compiled := p.CompileDelta()
	if compiled == nil {
		t.Fatal("CompileDelta returned nil for a compilable space")
	}
	states := p.Space().States()
	src := rng.New(7)
	for k := 0; k < 200000; k++ {
		r := states[src.Uintn(uint64(len(states)))]
		i := states[src.Uintn(uint64(len(states)))]
		wr, wi := p.Delta(r, i)
		gr, gi := compiled(r, i)
		if gr != wr || gi != wi {
			t.Fatalf("pair (%#x, %#x): compiled (%#x, %#x), interpreted (%#x, %#x)",
				r, i, gr, gi, wr, wi)
		}
	}
}

func TestCompiledDeltaOverflowPath(t *testing.T) {
	// Cap the pair table at 300 ids, below the 1024 words the field
	// discovers, so every pair with a later-discovered word routes through
	// the overflow map while early pairs stay table-served.
	p := testProtocol(t, 10, 1000)
	m := newDeltaMemo(p.Space().WordBound(), 300, p.Delta)
	states := p.Space().States()
	for _, s := range states {
		m.id(s)
	}
	if got := m.pairs.Stride(); got != 300 {
		t.Fatalf("stride %d, want the 300-id cap", got)
	}
	src := rng.New(11)
	for k := 0; k < 50000; k++ {
		r := states[src.Uintn(uint64(len(states)))]
		i := states[src.Uintn(uint64(len(states)))]
		wr, wi := p.Delta(r, i)
		gr, gi := m.Delta(r, i)
		if gr != wr || gi != wi {
			t.Fatalf("pair (%#x, %#x): memo (%#x, %#x), interpreted (%#x, %#x)",
				r, i, gr, gi, wr, wi)
		}
	}
}

func TestCompileDeltaGatesWideSpaces(t *testing.T) {
	p := testProtocol(t, 23, 1<<23)
	if p.CompileDelta() != nil {
		t.Fatalf("a %d-bit space (bound %d) must not compile (cap %d)",
			23, p.Space().WordBound(), compiledMaxWordBound)
	}
}

func TestCompiledDeltaOutOfSpaceWordFallsBack(t *testing.T) {
	// Words outside the declared bound bypass the memo but still answer
	// through the interpreted pipeline.
	p := testProtocol(t, 4, 16)
	m := newDeltaMemo(p.Space().WordBound(), p.Space().Size(), p.Delta)
	r, i := uint32(1<<20|3), uint32(5)
	wr, wi := p.Delta(r, i)
	gr, gi := m.Delta(r, i)
	if gr != wr || gi != wi {
		t.Fatalf("out-of-space pair: memo (%#x, %#x), interpreted (%#x, %#x)", gr, gi, wr, wi)
	}
}
