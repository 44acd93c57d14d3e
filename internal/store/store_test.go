package store_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"popelect/internal/sim"
	"popelect/internal/stats"
	"popelect/internal/store"
)

func testKey() store.Key {
	return store.Key{
		Kind:     "trials",
		Protocol: "gs18",
		N:        1 << 12,
		Trials:   5,
		Seed:     2019,
		Backend:  "counts",
		Batch:    "auto",
	}
}

// TestKeyHashGolden pins the content address of testKey, so entries
// written by earlier binaries keep answering lookups. It moves only with a
// deliberate schemaVersion bump. Schema 4, with the constant sharded-engine
// fields, gave d6cdb6d45ff76cd36e7045569ef02abe79f7b8fd9b94e4d89cb98dbb31f39967.
func TestKeyHashGolden(t *testing.T) {
	const want = "22a36776f3431b4c7d5b7d643ace6e0b7795c1facadbc55df928b7a8729f5ed9"
	if got := testKey().Hash(); got != want {
		t.Fatalf("testKey hash %s, golden %s — existing store entries would miss", got, want)
	}
}

func TestKeyHashStableAndSensitive(t *testing.T) {
	k := testKey()
	if k.Hash() != k.Hash() {
		t.Fatal("hash is not deterministic")
	}
	seen := map[string]string{k.Hash(): "base"}
	variants := map[string]store.Key{}
	for name, mut := range map[string]func(*store.Key){
		"kind":       func(k *store.Key) { k.Kind = "series" },
		"protocol":   func(k *store.Key) { k.Protocol = "core" },
		"n":          func(k *store.Key) { k.N++ },
		"trials":     func(k *store.Key) { k.Trials++ },
		"seed":       func(k *store.Key) { k.Seed++ },
		"budget":     func(k *store.Key) { k.Budget = 1 },
		"backend":    func(k *store.Key) { k.Backend = "dense" },
		"batch":      func(k *store.Key) { k.Batch = "exact" },
		"workers":    func(k *store.Key) { k.Workers = 8 },
		"gamma":      func(k *store.Key) { k.Gamma = 60 },
		"probeEvery": func(k *store.Key) { k.ProbeEvery = 256 },
		"extra":      func(k *store.Key) { k.Extra = "bias=0.5" },
	} {
		v := testKey()
		mut(&v)
		variants[name] = v
	}
	for name, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("changing %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func TestResultsRoundTrip(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()

	if _, ok, err := s.GetResults(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	rs := []sim.Result{
		{Converged: true, Interactions: 123456, N: 1 << 12, Leaders: 1, LeaderID: 7, Counts: []int64{1, 4095}, Seed: 0},
		{Converged: false, Interactions: 999, N: 1 << 12, Leaders: 3, LeaderID: -1, Counts: []int64{3, 4093}, Seed: 1},
	}
	if err := s.PutResults(k, rs); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetResults(k)
	if err != nil || !ok {
		t.Fatalf("after put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rs)
	}
	if h, m := s.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", h, m)
	}

	// A different key misses without touching the stored entry.
	other := k
	other.Seed++
	if _, ok, err := s.GetResults(other); err != nil || ok {
		t.Fatalf("other key: ok=%v err=%v", ok, err)
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	k.Kind = "series"
	k.ProbeEvery = 64

	a := stats.NewSeries("leaders", 0)
	b := stats.NewSeries("classes", 0)
	for i := 0; i < 500; i++ {
		a.Add(uint64(i*64), float64(500-i))
		b.Add(uint64(i*64), float64(i%7)+0.5)
	}
	orig := []*stats.Series{a, b}
	if err := s.PutSeries(k, orig); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetSeries(k)
	if err != nil || !ok {
		t.Fatalf("after put: ok=%v err=%v", ok, err)
	}
	if len(got) != len(orig) {
		t.Fatalf("got %d series, want %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i].Name != orig[i].Name {
			t.Fatalf("series %d name %q, want %q", i, got[i].Name, orig[i].Name)
		}
		ws, wv := orig[i].Points()
		gs, gv := got[i].Points()
		if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("series %q points differ after round trip", orig[i].Name)
		}
	}

	// A results lookup against a series entry is a typed error, not a hit.
	if _, _, err := s.GetResults(k); err == nil || !strings.Contains(err.Error(), "no results") {
		t.Fatalf("GetResults on series entry: %v", err)
	}
}

func TestSecondOpenIsHit(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	rs := []sim.Result{{Converged: true, Interactions: 42, N: 8, Leaders: 1, LeaderID: 0, Counts: []int64{1, 7}}}

	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s1.GetResults(k); ok {
		t.Fatal("fresh store should miss")
	}
	if err := s1.PutResults(k, rs); err != nil {
		t.Fatal(err)
	}

	// A fresh Store over the same directory — a new process — hits.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.GetResults(k)
	if err != nil || !ok {
		t.Fatalf("second open: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatal("second open returned different results")
	}
	if h, m := s2.Stats(); h != 1 || m != 0 {
		t.Fatalf("second open stats = %d hits, %d misses; want 1, 0", h, m)
	}
}

func TestCorruptEntryIsErrorNotMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.PutResults(k, []sim.Result{{N: 8}}); err != nil {
		t.Fatal(err)
	}
	h := k.Hash()
	path := filepath.Join(dir, h[:2], h+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetResults(k); err == nil || ok {
		t.Fatalf("corrupt entry: ok=%v err=%v (want error)", ok, err)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.PutResults(k, []sim.Result{{N: 8}}); err != nil {
		t.Fatal(err)
	}
	h := k.Hash()
	path := filepath.Join(dir, h[:2], h+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := retagVersion(data)
	if tampered == string(data) {
		t.Fatal("could not rewrite version field")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetResults(k); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("tampered version: %v", err)
	}
}

// retagVersion rewrites an entry's schema version field to 99, a version
// no binary writes.
func retagVersion(data []byte) string {
	return regexp.MustCompile(`"version":\d+`).ReplaceAllString(string(data), `"version":99`)
}

// FuzzStoreEntry writes arbitrary bytes where a results entry and a series
// entry live and reads both back through GetResults and GetSeries: every
// read may hit, miss or fail, but none may panic. The corpus is seeded with
// the entries the tests above write, valid and corrupted.
func FuzzStoreEntry(f *testing.F) {
	resKey := testKey()
	serKey := testKey()
	serKey.Kind = "series"
	serKey.ProbeEvery = 64

	dir := f.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	entry := func(k store.Key) string {
		h := k.Hash()
		return filepath.Join(dir, h[:2], h+".json")
	}
	sr := stats.NewSeries("leaders", 0)
	for i := 0; i < 20; i++ {
		sr.Add(uint64(i*64), float64(20-i))
	}
	if err := s.PutResults(resKey, []sim.Result{
		{Converged: true, Interactions: 123456, N: 1 << 12, Leaders: 1, LeaderID: 7, Counts: []int64{1, 4095}},
		{Converged: false, Interactions: 999, N: 1 << 12, Leaders: 3, LeaderID: -1, Counts: []int64{3, 4093}, Seed: 1},
	}); err != nil {
		f.Fatal(err)
	}
	if err := s.PutSeries(serKey, []*stats.Series{sr}); err != nil {
		f.Fatal(err)
	}
	for _, k := range []store.Key{resKey, serKey} {
		data, err := os.ReadFile(entry(k))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add([]byte(retagVersion(data)))
	}
	f.Add([]byte("{not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range []store.Key{resKey, serKey} {
			if err := os.WriteFile(entry(k), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s.GetResults(k)
			s.GetSeries(k)
		}
	})
}
