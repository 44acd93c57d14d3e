// Package store is a content-addressed cache for simulation artifacts:
// trial results and probe time-series, keyed by a hash of everything that
// determines them (protocol, population size, seed, budget, backend, batch
// policy, protocol parameters, and a format version). Because
// every engine is deterministic given its configuration and PRNG stream,
// the cache key fully determines the value — a hit can be substituted for
// a re-run, which is what lets sweeps and the paper experiments skip cells
// they have already computed.
//
// Entries live under the store directory as <hash[:2]>/<hash>.json, written
// atomically (temp + rename), so a killed run never leaves a truncated
// entry behind. The stored envelope embeds the full key; Get verifies it
// against the requested key, so a hash collision or a schema drift surfaces
// as an error rather than a silently wrong result.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"popelect/internal/sim"
	"popelect/internal/stats"
)

// schemaVersion is folded into every key hash; bump it whenever the
// meaning of a key field or the envelope layout changes, or when the
// trajectory an unchanged key stands for changes, so stale entries from
// older binaries miss instead of being served as current results.
// Version 2: the serial batch sampler no longer prunes silent initiator
// columns, which moves batched runs of protocols with silent pairs.
// Version 3: every batch draw is an exact hypergeometric draw (no rounded
// Normal for large variances), which moves every batched run.
const schemaVersion = 3

// Key identifies one cached computation. Every field that influences the
// simulated trajectory or its observation must appear here; two runs with
// equal keys are byte-identical by the determinism contract, which is the
// only reason substituting a cached value is sound. Fields irrelevant to a
// given entry stay at their zero value (the hash covers them anyway, so a
// zero Gamma and an unset Gamma are the same key — as they should be,
// since both select the derived default).
type Key struct {
	// Kind namespaces the entry: what computation produced it
	// (e.g. "trials", "series", an experiment id). Entries of different
	// kinds never collide even with equal parameters.
	Kind string `json:"kind"`

	// Protocol names the protocol variant (registry name or equivalent).
	Protocol string `json:"protocol"`

	// N is the population size.
	N int `json:"n"`

	// Trials is the number of independent runs aggregated in the entry.
	Trials int `json:"trials"`

	// Seed is the base PRNG seed.
	Seed uint64 `json:"seed"`

	// Budget is the interaction bound (0 = the backend default).
	Budget uint64 `json:"budget"`

	// Backend is the engine selection ("dense", "counts", "auto", ...).
	Backend string `json:"backend"`

	// Batch fingerprints the batch policy (e.g. "auto", "adaptive(ε=0.02)",
	// "exact", a fixed length). String-typed so the store does not chase
	// the sim package's policy representation.
	Batch string `json:"batch,omitempty"`

	// Workers is the engine-internal fan-out (sim.CountsEngine.Workers).
	// It belongs in the key because different worker counts consume
	// randomness in different orders and yield different (statistically
	// equivalent) trajectories. Trial-level concurrency does not: RunTrials
	// results are independent of its pool size.
	Workers int `json:"workers,omitempty"`

	// Gamma is the phase-clock resolution override (0 = derived default).
	Gamma int `json:"gamma,omitempty"`

	// ProbeEvery is the census-probe cadence for series entries (0 = none
	// or the per-experiment default).
	ProbeEvery uint64 `json:"probeEvery,omitempty"`

	// Extra discriminates anything the fixed fields do not cover (bias
	// values, φ/ψ overrides, sweep-cell labels). Callers must render it
	// deterministically.
	Extra string `json:"extra,omitempty"`
}

// TrialKey returns the key of a batch of tc.Trials trials of protocol at
// population size n: every TrialConfig field that shapes the trajectories.
// The trial pool size (tc.Workers) is deliberately absent — RunTrials
// results are independent of it — while the engine-internal fan-out is
// not. Callers fill Gamma, ProbeEvery and Extra for what the configuration
// does not carry (protocol overrides, the perturbation fingerprint).
func TrialKey(kind, protocol string, n int, tc sim.TrialConfig) Key {
	return Key{
		Kind:     kind,
		Protocol: protocol,
		N:        n,
		Trials:   tc.Trials,
		Seed:     tc.Seed,
		Budget:   tc.MaxInteractions,
		Backend:  string(tc.Backend),
		Batch:    tc.Batch.String(),
		Workers:  tc.EngineWorkers,
	}
}

// Hash returns the content address of the key: a hex SHA-256 over a
// canonical rendering of every field plus the schema version.
func (k Key) Hash() string {
	h := sha256.New()
	field := func(name, val string) {
		// Length-prefixed name/value pairs make the encoding injective:
		// no concatenation of fields can masquerade as another.
		fmt.Fprintf(h, "%d:%s=%d:%s;", len(name), name, len(val), val)
	}
	field("schema", strconv.Itoa(schemaVersion))
	field("kind", k.Kind)
	field("protocol", k.Protocol)
	field("n", strconv.Itoa(k.N))
	field("trials", strconv.Itoa(k.Trials))
	field("seed", strconv.FormatUint(k.Seed, 10))
	field("budget", strconv.FormatUint(k.Budget, 10))
	field("backend", k.Backend)
	field("batch", k.Batch)
	field("workers", strconv.Itoa(k.Workers))
	// Removed sharded-engine fields, kept constant so existing entries keep their addresses.
	field("shards", "0")
	field("migration", "0")
	field("shardEpoch", "0")
	field("gamma", strconv.Itoa(k.Gamma))
	field("probeEvery", strconv.FormatUint(k.ProbeEvery, 10))
	field("extra", k.Extra)
	return hex.EncodeToString(h.Sum(nil))
}

// seriesData is the stored shape of one stats.Series: its exported points.
type seriesData struct {
	Name  string    `json:"name"`
	Steps []uint64  `json:"steps"`
	Vals  []float64 `json:"values"`
}

// envelope is the on-disk entry format.
type envelope struct {
	Version int          `json:"version"`
	Key     Key          `json:"key"`
	Results []sim.Result `json:"results,omitempty"`
	Series  []seriesData `json:"series,omitempty"`
}

// Store is a content-addressed result cache rooted at one directory.
// Methods are safe for concurrent use (every Put is an independent atomic
// file write); the hit/miss counters are cumulative over the Store's
// lifetime.
type Store struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Open opens (creating as needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the cumulative hit and miss counts of Get* calls.
func (s *Store) Stats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// String renders the hit/miss tally, for end-of-run logging.
func (s *Store) String() string {
	h, m := s.Stats()
	return fmt.Sprintf("store %s: %d hits, %d misses", s.dir, h, m)
}

// path returns the entry file for a hash, sharded by its first byte so no
// single directory grows unboundedly.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".json")
}

// put writes an envelope atomically under the key's address.
func (s *Store) put(env envelope) error {
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	path := s.path(env.Key.Hash())
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(dir, ".entry-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// get reads and validates the envelope under the key's address. ok is
// false (a miss) when no entry exists; a present-but-unreadable entry is
// an error, never a silent miss.
func (s *Store) get(k Key) (envelope, bool, error) {
	var env envelope
	data, err := os.ReadFile(s.path(k.Hash()))
	if os.IsNotExist(err) {
		s.misses.Add(1)
		return env, false, nil
	}
	if err != nil {
		return env, false, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return env, false, fmt.Errorf("store: corrupt entry %s: %w", s.path(k.Hash()), err)
	}
	if env.Version != schemaVersion {
		return env, false, fmt.Errorf("store: entry %s has schema version %d; this binary uses %d",
			s.path(k.Hash()), env.Version, schemaVersion)
	}
	if env.Key != k {
		return env, false, fmt.Errorf("store: entry %s was stored under a different key (hash collision or schema drift)",
			s.path(k.Hash()))
	}
	s.hits.Add(1)
	return env, true, nil
}

// PutResults stores a batch of trial results under k.
func (s *Store) PutResults(k Key, rs []sim.Result) error {
	return s.put(envelope{Version: schemaVersion, Key: k, Results: rs})
}

// GetResults fetches the trial results stored under k; ok is false on a
// miss. A present entry of the wrong payload type is an error.
func (s *Store) GetResults(k Key) (rs []sim.Result, ok bool, err error) {
	env, ok, err := s.get(k)
	if err != nil || !ok {
		return nil, false, err
	}
	if env.Results == nil {
		return nil, false, fmt.Errorf("store: entry for key %s holds no results", k.Hash())
	}
	return env.Results, true, nil
}

// PutSeries stores probe time-series under k, as their exported points.
func (s *Store) PutSeries(k Key, series []*stats.Series) error {
	env := envelope{Version: schemaVersion, Key: k, Series: make([]seriesData, len(series))}
	for i, sr := range series {
		steps, vals := sr.Points()
		env.Series[i] = seriesData{Name: sr.Name, Steps: steps, Vals: vals}
	}
	return s.put(env)
}

// GetSeries fetches the time-series stored under k, rebuilt so that each
// series exports exactly the stored points; ok is false on a miss.
func (s *Store) GetSeries(k Key) (series []*stats.Series, ok bool, err error) {
	env, ok, err := s.get(k)
	if err != nil || !ok {
		return nil, false, err
	}
	if env.Series == nil {
		return nil, false, fmt.Errorf("store: entry for key %s holds no series", k.Hash())
	}
	series = make([]*stats.Series, len(env.Series))
	for i, sd := range env.Series {
		// Budget one past the stored point count: Series compacts when the
		// retained count reaches the budget, so an exact budget would
		// downsample the final point away.
		sr, err := stats.SeriesFromPoints(sd.Name, len(sd.Steps)+1, sd.Steps, sd.Vals)
		if err != nil {
			return nil, false, fmt.Errorf("store: entry for key %s: series %q: %w", k.Hash(), sd.Name, err)
		}
		series[i] = sr
	}
	return series, true, nil
}
