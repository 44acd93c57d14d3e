package sim

import (
	"fmt"
	"sync"
	"testing"

	"popelect/internal/pairtab"
	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
)

// enumDuel is the duel fixture with finite state-space enumeration, making
// it eligible for the counts backend.
type enumDuel struct{ duel }

func (enumDuel) States() []uint32 { return []uint32{0, 1} }

// skewInit is a three-state fixture whose initial configuration depends on
// the agent index, exercising the counts backend's initial census loop:
// agents come in X and Y flavors, X converts Y on contact.
type skewInit struct{ n, x int }

func (p skewInit) Name() string { return "skewInit" }
func (p skewInit) N() int       { return p.n }
func (p skewInit) Init(yield func(uint32, int64)) {
	yield(1, int64(p.x))
	yield(0, int64(p.n-p.x))
}
func (p skewInit) Delta(r, i uint32) (uint32, uint32) {
	if i == 1 {
		return 1, 1
	}
	return r, i
}
func (p skewInit) NumClasses() int       { return 2 }
func (p skewInit) Class(s uint32) uint8  { return uint8(s) }
func (p skewInit) Leader(s uint32) bool  { return false }
func (p skewInit) Stable(c []int64) bool { return c[0] == 0 }
func (p skewInit) States() []uint32      { return []uint32{0, 1} }

func TestCountsDuelElectsOneLeader(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100, 5000} {
		e := NewCountsEngine(enumDuel{duel{n}}, rng.New(uint64(n)))
		res := e.Run()
		if !res.Converged {
			t.Fatalf("n=%d: %v", n, res)
		}
		if res.Leaders != 1 || res.Counts[1] != 1 || res.Counts[0] != int64(n-1) {
			t.Fatalf("n=%d: %+v", n, res)
		}
		if res.LeaderID != -1 {
			t.Fatalf("n=%d: counts backend must not report an agent id, got %d", n, res.LeaderID)
		}
		if res.DistinctStates != 2 {
			t.Fatalf("n=%d: distinct states %d", n, res.DistinctStates)
		}
	}
}

func TestCountsBatchModeConverges(t *testing.T) {
	// Force batch mode on a moderate population: every batch advances
	// n/8 interactions in aggregated draws.
	e := NewCountsEngine(enumDuel{duel{1 << 14}}, rng.New(9))
	e.Policy = BatchPolicy{Mode: BatchFixed, Len: 1 << 11}
	res := e.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("batch mode failed to elect: %+v", res)
	}
	if res.Interactions%(1<<11) != 0 {
		// Convergence is detected at batch granularity.
		t.Fatalf("interactions %d not a multiple of the batch length", res.Interactions)
	}
}

func TestCountsInitialCensusRespectsInit(t *testing.T) {
	e := NewCountsEngine(skewInit{n: 1000, x: 123}, rng.New(1))
	if got := e.Counts(); got[1] != 123 || got[0] != 877 {
		t.Fatalf("initial census = %v", got)
	}
	res := e.Run()
	if !res.Converged || res.Counts[1] != 1000 {
		t.Fatalf("%+v", res)
	}
}

func TestCountsStepMatchesCensus(t *testing.T) {
	e := NewCountsEngine(enumDuel{duel{50}}, rng.New(7))
	for i := 0; i < 200; i++ {
		e.Step()
		total := int64(0)
		for _, c := range e.Counts() {
			total += c
		}
		if total != 50 {
			t.Fatalf("census lost agents after step %d: %v", i, e.Counts())
		}
	}
	if e.Steps() != 200 {
		t.Fatalf("Steps = %d", e.Steps())
	}
}

func TestCountsRunStepsAndReset(t *testing.T) {
	e := NewCountsEngine(enumDuel{duel{64}}, rng.New(3))
	res := e.RunSteps(40)
	if res.Interactions != 40 || e.Steps() != 40 {
		t.Fatalf("RunSteps advanced %d", res.Interactions)
	}
	e.Reset()
	if e.Steps() != 0 || e.Counts()[1] != 64 || e.Leaders() != 64 {
		t.Fatal("Reset did not restore the initial census")
	}
}

func TestCountsBudget(t *testing.T) {
	e := NewCountsEngine(enumDuel{duel{500}}, rng.New(11))
	e.SetBudget(4)
	res := e.Run()
	if res.Converged || res.Interactions != 4 {
		t.Fatalf("budgeted run: %+v", res)
	}
}

// TestCountsBatchMassiveDuel runs the duel at a population far beyond what
// the dense backend could touch per-interaction in test time: 10⁸ agents.
// Duel needs Θ(n²) interactions to finish, so run a fixed number of steps
// and check mass conservation and leader-count monotonicity instead.
func TestCountsBatchMassiveDuel(t *testing.T) {
	const n = 100_000_000
	e := NewCountsEngine(enumDuel{duel{n}}, rng.New(5))
	res := e.RunSteps(20 * n)
	if res.Converged {
		t.Fatal("duel cannot finish in 20 parallel time units")
	}
	if res.Counts[0]+res.Counts[1] != n {
		t.Fatalf("census lost agents: %v", res.Counts)
	}
	// After 20 parallel time units of pairwise elimination the leader
	// count should have collapsed to Θ(1/t) · n-ish; loosely, below n/10
	// and above 0.
	if res.Leaders <= 0 || int64(res.Leaders) >= n/10 {
		t.Fatalf("implausible leader count %d after %d interactions", res.Leaders, res.Interactions)
	}
}

func TestNewEngineBackends(t *testing.T) {
	src := rng.New(1)
	if _, err := NewEngine(duel{10}, src, BackendCounts); err == nil {
		t.Fatal("counts backend must reject a non-Enumerable protocol")
	}
	eng, err := NewEngine(duel{10}, src, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.(*Runner); !ok {
		t.Fatalf("auto on non-enumerable must be dense, got %T", eng)
	}
	eng, err = NewEngine(enumDuel{duel{10}}, src, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.(*Runner); !ok {
		t.Fatalf("auto below the size threshold must be dense, got %T", eng)
	}
	eng, err = NewEngine(enumDuel{duel{AutoCountsMinN}}, src, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.(*CountsEngine); !ok {
		t.Fatalf("auto at the size threshold must be counts, got %T", eng)
	}
	if _, err := NewEngine(duel{10}, src, Backend("bogus")); err == nil {
		t.Fatal("bogus backend must error")
	}
}

func TestParseBackend(t *testing.T) {
	for s, want := range map[string]Backend{
		"":       BackendAuto,
		"dense":  BackendDense,
		"counts": BackendCounts,
		"auto":   BackendAuto,
	} {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseBackend("fast"); err == nil {
		t.Fatal("ParseBackend must reject unknown names")
	}
}

// bruteFind is find's reference: the smallest slot whose prefix sum over
// vals exceeds u, by a linear scan.
func bruteFind(vals []int64, u uint64) int32 {
	var prefix uint64
	for i, v := range vals {
		prefix += uint64(v)
		if prefix > u {
			return int32(i)
		}
	}
	panic("bruteFind: u ≥ total")
}

// checkFind compares f.find against bruteFind over vals. Totals up to
// 2¹⁶ are checked at every u in [0, total); larger ones at both ends of
// every occupied slot's range plus 64 uniform draws.
func checkFind(t *testing.T, f *fenwick, vals []int64, src *rng.Source, ctx string) {
	t.Helper()
	var total uint64
	for _, v := range vals {
		total += uint64(v)
	}
	if total == 0 {
		return
	}
	var us []uint64
	if total <= 1<<16 {
		for u := uint64(0); u < total; u++ {
			us = append(us, u)
		}
	} else {
		var prefix uint64
		for _, v := range vals {
			if v > 0 {
				us = append(us, prefix, prefix+uint64(v)-1)
			}
			prefix += uint64(v)
		}
		for range 64 {
			us = append(us, src.Uintn(total))
		}
	}
	for _, u := range us {
		if got, want := f.find(u), bruteFind(vals, u); got != want {
			t.Fatalf("%s: find(%d) = %d, want %d (slots %v)", ctx, u, got, want, vals)
		}
	}
}

// loadFenwick initialises f to len(vals) slots holding vals.
func loadFenwick(f *fenwick, vals []int64) {
	f.init(len(vals))
	for i, v := range vals {
		f.add(int32(i), v)
	}
}

// fenwickTable is a fixed slot table and the capacity init rounds it to.
type fenwickTable struct {
	name string
	vals []int64
	cap  int
}

// checkFenwickTables loads each fixed table, checks its rounded-up
// capacity, and compares find against the linear scan.
func checkFenwickTables(t *testing.T, src *rng.Source, cases []fenwickTable) {
	t.Helper()
	for _, tc := range cases {
		var f fenwick
		loadFenwick(&f, tc.vals)
		if f.cap != tc.cap {
			t.Fatalf("%s: cap = %d, want %d", tc.name, f.cap, tc.cap)
		}
		checkFind(t, &f, tc.vals, src, tc.name)
	}
}

// checkEmptySlot empties one slot of vals and checks that its range is
// handed to the next occupied slot: find(u) = wantAfter, and every u
// still agrees with the linear scan.
func checkEmptySlot(t *testing.T, src *rng.Source, vals []int64, slot int32, u uint64, wantAfter int32) {
	t.Helper()
	var f fenwick
	loadFenwick(&f, vals)
	f.add(slot, -vals[slot])
	vals[slot] = 0
	if got := f.find(u); got != wantAfter {
		t.Fatalf("after emptying slot %d, find(%d) = %d, want %d", slot, u, got, wantAfter)
	}
	checkFind(t, &f, vals, src, "after emptying a slot")
}

// TestFenwickFind walks the selection tree over its exact support for a
// non-power-of-two slot count (9 slots, cap 16), an exact power of two
// with only the last slot occupied, and the single slot; then empties a
// slot and checks its range collapses onto the next occupied one.
func TestFenwickFind(t *testing.T) {
	src := rng.New(2)
	checkFenwickTables(t, src, []fenwickTable{
		{"nine slots", []int64{3, 0, 7, 1, 0, 0, 5, 2, 9}, 16},
		{"power of two, last slot only", []int64{0, 0, 0, 10}, 4},
		{"single slot", []int64{5}, 1},
	})
	checkEmptySlot(t, src, []int64{3, 0, 7, 1, 0, 0, 5, 2, 9}, 2, 3, 3)
}

// TestFenwick checks find against a linear prefix scan: fixed tables
// (odd slot counts, leading zero slots), every slot count 1–70 with
// random small values and interleaved adds, a reused tree re-initialised
// to other sizes, and slot values near 2⁶⁰ (the bound on reactive pair
// masses).
func TestFenwick(t *testing.T) {
	src := rng.New(1)
	checkFenwickTables(t, src, []fenwickTable{
		{"five slots", []int64{3, 0, 2, 5, 1}, 8},
		{"leading zeros", []int64{0, 0, 0, 0, 0, 0, 0, 1}, 8},
		{"near 2^60", []int64{1<<60 - 1, 0, 1 << 60, 3, 1<<60 + 7, 1, 1<<60 - 5}, 8},
	})
	checkEmptySlot(t, src, []int64{3, 0, 2, 5, 1}, 0, 0, 2)

	// Every slot count 1–70, about a third of slots zero, adds
	// interleaved with finds; one tree is reused across all of them, so
	// each init must clear what the previous size left behind.
	var g fenwick
	for n := 1; n <= 70; n++ {
		vals := make([]int64, n)
		for i := range vals {
			if src.Uintn(3) != 0 {
				vals[i] = int64(src.Uintn(6))
			}
		}
		loadFenwick(&g, vals)
		checkFind(t, &g, vals, src, "random")
		for range 3 * n {
			i := int32(src.Uintn(uint64(n)))
			d := int64(src.Uintn(5)) - 2
			if vals[i]+d < 0 {
				d = -vals[i]
			}
			g.add(i, d)
			vals[i] += d
			checkFind(t, &g, vals, src, "after add")
		}
	}
	// Shrinking re-init of the reused tree: no stale mass survives.
	loadFenwick(&g, []int64{0, 4, 0})
	checkFind(t, &g, []int64{0, 4, 0}, src, "re-init after 70 slots")
}

// TestHyperDrawIsExact pins the batch chains' draw law: on twin sources,
// hyperDraw returns rng.Hypergeometric's draw, draw for draw, both where
// the variance is ≥ 25 (the first three points, where a moment-matched
// Normal would also fit mean and variance) and where it is small, and on
// the empty and full edges. Each point runs in its own goroutine on its
// own sources, as the in-batch workers do, so the race job covers the
// workers' concurrent draws on the shared log-factorial table.
func TestHyperDrawIsExact(t *testing.T) {
	points := []struct{ good, bad, sample int64 }{
		{1000, 100_000_000, 2_600_000},
		{1_000_000, 100_000_000, 3000},
		{400, 100_000, 8000},
		{30, 70, 8},
		{5, 1_000_000, 400_000},
		{200, 300, 100},
		{0, 50, 20},
		{50, 0, 20},
		{50, 50, 0},
		{50, 50, 100},
	}
	var wg sync.WaitGroup
	errs := make([]string, len(points))
	for i, p := range points {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := rng.New(uint64(i)+1), rng.New(uint64(i)+1)
			for d := range 2000 {
				got := hyperDraw(a, p.good, p.bad, p.sample)
				if want := b.Hypergeometric(p.good, p.bad, p.sample); got != want {
					errs[i] = fmt.Sprintf("hyperDraw(%d, %d, %d) draw %d = %d, Hypergeometric gives %d",
						p.good, p.bad, p.sample, d, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}

// bigEnum is an Enumerable fixture with a configurable state-space bound,
// for exercising the flat delta-table sizing. Delta mixes states so that
// arbitrary ids can be forced into the transition cache.
type bigEnum struct{ n, states int }

func (p bigEnum) Name() string          { return "bigEnum" }
func (p bigEnum) N() int                { return p.n }
func (p bigEnum) NumClasses() int       { return 1 }
func (p bigEnum) Class(s uint32) uint8  { return 0 }
func (p bigEnum) Leader(s uint32) bool  { return false }
func (p bigEnum) Stable(c []int64) bool { return false }
func (p bigEnum) Init(yield func(uint32, int64)) {
	for i := 0; i < p.n; i++ {
		yield(uint32(i%p.states), 1)
	}
}
func (p bigEnum) Delta(r, i uint32) (uint32, uint32) {
	return (r + i) % uint32(p.states), i
}
func (p bigEnum) States() []uint32 {
	out := make([]uint32, p.states)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// TestDeltaTabSizedFromEnumerationBound pins the auto-sizing contract: a
// protocol whose States() bound fits the memory budget gets a table capped
// at exactly that bound — tiny protocols get tiny tables, and a protocol
// with more than the old hard 2048-stride limit (GSU19 discovers ~2500
// distinct states at n = 10⁹) stays fully table-served.
func TestDeltaTabSizedFromEnumerationBound(t *testing.T) {
	// Tiny bound: the table clamps to it immediately.
	small := NewCountsEngine(bigEnum{n: 10, states: 7}, rng.New(1))
	if got := small.delta.Stride(); got != 7 {
		t.Fatalf("bound-7 protocol: stride %d, want 7", got)
	}

	// A bound beyond the old 2048 limit but within the memory budget: the
	// stride must be able to grow past 2048 up to the bound.
	const states = 2500
	e := NewCountsEngine(bigEnum{n: 10, states: states}, rng.New(1))
	for s := 0; s < states; s++ {
		e.indexOf(uint32(s))
	}
	if got := e.delta.Stride(); got != states {
		t.Fatalf("after discovering all %d states the stride is %d — table abandoned", states, got)
	}
	a, b := int32(2300), int32(2400)
	a2, b2 := e.deltaIDs(a, b)
	if want := int32((2300 + 2400) % states); a2 != want || b2 != b {
		t.Fatalf("deltaIDs(%d, %d) = (%d, %d), want (%d, %d)", a, b, a2, b2, want, b)
	}
	if _, _, ok := e.deltaLookup(a, b); !ok {
		t.Fatal("high-id pair was not memoized")
	}
}

// TestDeltaTabOverflowFallsBackToMap pins the two-tier behavior when the
// enumeration bound exceeds the memory budget: the table stays at its cap
// serving early-discovered (hot) ids, and later ids go through the map
// cache — correctness is unaffected.
func TestDeltaTabOverflowFallsBackToMap(t *testing.T) {
	states := pairtab.MaxStride + 100
	e := NewCountsEngine(bigEnum{n: 10, states: states}, rng.New(1))
	for s := 0; s < states; s++ {
		e.indexOf(uint32(s))
	}
	if got := e.delta.Stride(); got != pairtab.MaxStride {
		t.Fatalf("stride %d, want the budget stride %d (table kept at cap)", got, pairtab.MaxStride)
	}
	// Low-id pair: table path.
	if a2, b2 := e.deltaIDs(3, 5); a2 != 8 || b2 != 5 {
		t.Fatalf("low-id deltaIDs = (%d, %d)", a2, b2)
	}
	// Pair with one id beyond the stride: map path, correct result.
	hi := int32(pairtab.MaxStride + 50)
	want := int32((int(hi) + 2) % states)
	if a2, b2 := e.deltaIDs(hi, 2); a2 != want || b2 != 2 {
		t.Fatalf("high-id deltaIDs(%d, 2) = (%d, %d), want (%d, 2)", hi, a2, b2, want)
	}
	if a2, b2, ok := e.deltaLookup(hi, 2); !ok || a2 != want || b2 != 2 {
		t.Fatalf("overflow pair memo: (%d, %d, %v), want (%d, 2, true)", a2, b2, ok, want)
	}
	// And the engine still simulates correctly across the boundary.
	e2 := NewCountsEngine(bigEnum{n: 5000, states: states}, rng.New(9))
	res := e2.RunSteps(20000)
	total := int64(0)
	for _, c := range res.Counts {
		total += c
	}
	if total != 5000 {
		t.Fatalf("census mass %d after mixed table/map simulation, want 5000", total)
	}
}

func TestParseBatchPolicy(t *testing.T) {
	for s, want := range map[string]BatchPolicy{
		"":         {Mode: BatchAuto},
		"auto":     {Mode: BatchAuto},
		"adaptive": {Mode: BatchAdaptive},
		"exact":    {Mode: BatchExact},
		"fixed":    {Mode: BatchFixed},
		"4096":     {Mode: BatchFixed, Len: 4096},
		" 16 ":     {Mode: BatchFixed, Len: 16},
	} {
		got, err := ParseBatchPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseBatchPolicy(%q) = %+v, %v", s, got, err)
		}
	}
	for _, s := range []string{"fast", "0", "-3", "1.5", "eps"} {
		if _, err := ParseBatchPolicy(s); err == nil {
			t.Fatalf("ParseBatchPolicy(%q) must error", s)
		}
	}
}

// TestResolvedPolicy pins the batch policy resolution: an explicit Policy
// wins, and the zero value resolves by population size (exact below
// ExactMaxN, adaptive with the default ε above).
func TestResolvedPolicy(t *testing.T) {
	small := NewCountsEngine(enumDuel{duel{100}}, rng.New(1))
	if p := small.resolvedPolicy(); p.Mode != BatchExact {
		t.Fatalf("auto below ExactMaxN resolved to %+v, want exact", p)
	}
	small.Policy = BatchPolicy{Mode: BatchAdaptive}
	if p := small.resolvedPolicy(); p.Mode != BatchAdaptive || p.Eps != DefaultBatchEps {
		t.Fatalf("explicit adaptive resolved to %+v", p)
	}
	small.Policy = BatchPolicy{Mode: BatchAdaptive, Eps: 0.25}
	if p := small.resolvedPolicy(); p.Eps != 0.25 {
		t.Fatalf("explicit ε lost: %+v", p)
	}
	small.Policy = BatchPolicy{Mode: BatchFixed}
	if p := small.resolvedPolicy(); p.Mode != BatchFixed || p.Len != 100/8 {
		t.Fatalf("fixed without any length must default to n/8: %+v", p)
	}

	big := NewCountsEngine(enumDuel{duel{ExactMaxN}}, rng.New(1))
	if p := big.resolvedPolicy(); p.Mode != BatchAdaptive || p.Eps != DefaultBatchEps {
		t.Fatalf("auto at ExactMaxN resolved to %+v, want adaptive", p)
	}

	// The validated adaptive tier must cover the asymptotic-regime sizes
	// the repo's headline runs use (acceptance: at least 2²⁴, so that
	// auto no longer falls back to fixed batches below the range the
	// clockspan experiment re-validated with the derived Γ(n)).
	if AutoAdaptiveMaxN < 1<<24 {
		t.Fatalf("AutoAdaptiveMaxN = %d below the validated 2²⁴ floor", AutoAdaptiveMaxN)
	}

	// Beyond the adaptive tier, auto prefers the fixed n/8 throughput
	// regime. Constructing a real 2²⁷-agent engine costs an O(n) Reset,
	// so resize the small one: resolvedPolicy only reads e.n.
	huge := NewCountsEngine(enumDuel{duel{100}}, rng.New(1))
	huge.n = AutoAdaptiveMaxN + 1
	if p := huge.resolvedPolicy(); p.Mode != BatchFixed || p.Len != uint64(AutoAdaptiveMaxN+1)/8 {
		t.Fatalf("auto above AutoAdaptiveMaxN resolved to %+v, want fixed n/8", p)
	}
	huge.Policy = BatchPolicy{Mode: BatchAdaptive}
	if p := huge.resolvedPolicy(); p.Mode != BatchAdaptive {
		t.Fatalf("explicit adaptive above AutoAdaptiveMaxN must stick: %+v", p)
	}
}

// TestUpdateAdaptive exercises the drift controller's arithmetic directly:
// relative bounds on big states, the absolute floor on small ones,
// geometric growth through quiescent batches, the n/2 cap, and the
// symmetry of a drift record in the unit's two endpoints.
func TestUpdateAdaptive(t *testing.T) {
	e := NewCountsEngine(enumDuel{duel{1 << 20}}, rng.New(1))
	e.Policy = BatchPolicy{Mode: BatchAdaptive, Eps: 0.1}

	// record makes id 0's drift record: census pop at the measured
	// endpoint, change diff towards the other one.
	record := func(pop, diff int64) {
		e.pop[0], e.diff[0] = pop, diff
		e.touched = append(e.touched[:0], 0)
	}

	// Big state: count 10000, realized drift 200 over l=1000 → allowed
	// 0.1·10000 = 1000 → bound = 1000·1000/200 = 5000, above 2·l, so
	// growth clamps to 2000.
	record(10000, 200)
	e.updateAdaptive(1000, 0.1)
	if e.adaptLen != 2000 {
		t.Fatalf("growth-clamped bound: adaptLen = %d, want 2000", e.adaptLen)
	}

	// A shrinking state is bounded by its starting count: drift −800 per
	// 1000 with allowed 0.1·10000 = 1000 → bound 1000·1000/800 = 1250,
	// between l and 2l, so the bound itself is taken.
	record(10000, -800)
	e.updateAdaptive(1000, 0.1)
	if e.adaptLen != 1250 {
		t.Fatalf("bound between l and 2l: adaptLen = %d, want 1250", e.adaptLen)
	}

	// Violent drift shrinks without a clamp: drift −5000 over 1000 with
	// allowed 1000 → bound 200.
	record(10000, -5000)
	e.updateAdaptive(1000, 0.1)
	if e.adaptLen != 200 {
		t.Fatalf("shrink: adaptLen = %d, want 200", e.adaptLen)
	}

	// Small state: count 3, drift −3 over 1000 → the absolute allowance (4
	// agents) governs: bound = 4·1000/3 = 1333.
	record(3, -3)
	e.updateAdaptive(1000, 0.1)
	if e.adaptLen != 1333 {
		t.Fatalf("small-state floor: adaptLen = %d, want 1333", e.adaptLen)
	}

	// A state growing from zero is credited with its end count: delta 500
	// from pop 0 → c = 500, allowed 50 → bound 100.
	record(0, 500)
	e.updateAdaptive(1000, 0.1)
	if e.adaptLen != 100 {
		t.Fatalf("growing-from-zero credit: adaptLen = %d, want 100", e.adaptLen)
	}

	// One unit recorded from its start (10000, +200) and from its end
	// (10200, −200) gives the same length: both credit the larger endpoint,
	// allowed 0.03·10200 ≈ 306 → bound ≈ 1530, between l and 2l.
	record(10000, 200)
	e.updateAdaptive(1000, 0.03)
	fromStart := e.adaptLen
	record(10200, -200)
	e.updateAdaptive(1000, 0.03)
	if e.adaptLen != fromStart || fromStart <= 1500 || fromStart >= 2000 {
		t.Fatalf("endpoint symmetry: adaptLen %d from the start, %d from the end, want equal in (1500, 2000)", fromStart, e.adaptLen)
	}

	// Quiescent batch: no drift at all → pure geometric growth, capped at
	// n/2.
	record(10000, 0)
	e.updateAdaptive(1000, 0.1)
	if e.adaptLen != 2000 {
		t.Fatalf("quiescent growth: adaptLen = %d, want 2000", e.adaptLen)
	}
	e.updateAdaptive(uint64(e.n), 0.1)
	if e.adaptLen != uint64(e.n)/2 {
		t.Fatalf("cap: adaptLen = %d, want n/2 = %d", e.adaptLen, e.n/2)
	}
}

// TestCountsAdaptiveConverges runs GS18 under the explicit adaptive policy
// in the batched regime: it must elect exactly one leader, and the
// controller must actually reach batched lengths (not degenerate to exact
// stepping).
func TestCountsAdaptiveConverges(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(1 << 14))
	e := NewCountsEngine(pr, rng.New(31))
	e.Policy = BatchPolicy{Mode: BatchAdaptive}
	res := e.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("adaptive run failed to elect: %+v", res)
	}
	if e.adaptLen < adaptiveFloor {
		t.Fatalf("controller ended below the batching floor: adaptLen = %d", e.adaptLen)
	}
}

// TestCountsAdaptiveRecoversFromExactFallback pins the controller's return
// path: forced below the batching floor it steps exactly, measures drift
// over the chunk, and grows back into the batched regime when the
// population is quiescent.
func TestCountsAdaptiveRecoversFromExactFallback(t *testing.T) {
	// skewInit with x=n is immediately quiescent: every interaction is an
	// identity transition, so measured drift is zero and the controller
	// must grow geometrically from the forced floor.
	e := NewCountsEngine(skewInit{n: 1 << 18, x: 1 << 18}, rng.New(3))
	e.Policy = BatchPolicy{Mode: BatchAdaptive}
	e.adaptLen = 1 // force the exact fallback
	e.RunSteps(10 * adaptiveFloor)
	if e.adaptLen < 2*adaptiveFloor {
		t.Fatalf("controller did not grow out of the exact fallback: adaptLen = %d", e.adaptLen)
	}
	if e.Steps() != 10*adaptiveFloor {
		t.Fatalf("RunSteps advanced %d steps, want %d", e.Steps(), 10*adaptiveFloor)
	}
}

// TestCountsExactRunStopsAtStabilization pins the exact-mode loop contract
// (the audited satellite): Run detects stability at the exact interaction
// where it happens — not at a chunk boundary — and a probe at interval 1
// observes every step from 1 to the stabilization step exactly once.
func TestCountsExactRunStopsAtStabilization(t *testing.T) {
	e := NewCountsEngine(enumDuel{duel{200}}, rng.New(13))
	var fires []uint64
	e.AddProbe(func(step uint64, v CensusView) {
		fires = append(fires, step)
	}, 1)
	res := e.Run()
	if !res.Converged || res.Leaders != 1 {
		t.Fatalf("%+v", res)
	}
	if uint64(len(fires)) != res.Interactions {
		t.Fatalf("probe at interval 1 fired %d times over %d interactions", len(fires), res.Interactions)
	}
	for i, s := range fires {
		if s != uint64(i+1) {
			t.Fatalf("fire %d at step %d, want %d", i, s, i+1)
		}
	}
	// Replaying the run one step at a time must find the census unstable at
	// every interaction before the recorded stabilization point: stability
	// really was detected at the first stable step.
	e2 := NewCountsEngine(enumDuel{duel{200}}, rng.New(13))
	for e2.Steps() < res.Interactions-1 {
		e2.Step()
		if e2.proto.Stable(e2.classCounts) {
			t.Fatalf("census stable at step %d, but Run reported %d", e2.Steps(), res.Interactions)
		}
	}
}

// TestCountsRunOnStableStartFiresFinalOnce: a Run on an already-stable
// configuration advances nothing and delivers exactly one probe sample (the
// final fire at step 0).
func TestCountsRunOnStableStartFiresFinalOnce(t *testing.T) {
	e := NewCountsEngine(skewInit{n: 500, x: 500}, rng.New(1))
	var fires []uint64
	e.AddProbe(func(step uint64, v CensusView) {
		fires = append(fires, step)
	}, 1)
	res := e.Run()
	if !res.Converged || res.Interactions != 0 {
		t.Fatalf("%+v", res)
	}
	if len(fires) != 1 || fires[0] != 0 {
		t.Fatalf("final-only fire expected at step 0, got %v", fires)
	}
}

// TestCountsExactRunStepsProbeCadence covers the exact-mode probe path
// (below ExactMaxN) under RunSteps: fires at exact interval multiples, no
// end-of-run fire (RunSteps has no final fire).
func TestCountsExactRunStepsProbeCadence(t *testing.T) {
	e := NewCountsEngine(enumDuel{duel{1000}}, rng.New(7))
	var fires []uint64
	e.AddProbe(func(step uint64, v CensusView) {
		fires = append(fires, step)
	}, 100)
	e.RunSteps(1050)
	if len(fires) != 10 {
		t.Fatalf("probe fired %d times over 1050 exact steps at interval 100: %v", len(fires), fires)
	}
	for i, s := range fires {
		if s != uint64(i+1)*100 {
			t.Fatalf("fire %d at step %d, want %d", i, s, (i+1)*100)
		}
	}
}
