package eval

import (
	"context"
	"sync"
	"sync/atomic"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/memo"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
)

// GoldenRequest identifies one golden-reference run: the waveform
// configuration and seed the inputs were generated from, the generated
// input traces themselves, and the simulation horizon. Config and Seed
// fully determine Inputs and Until (trace generation is deterministic),
// so they can serve as a content key for memoization.
type GoldenRequest struct {
	Config gen.Config
	Seed   int64
	Inputs []trace.Trace
	Until  float64
}

// GoldenSource produces the digitized golden output trace for a request.
// Implementations must be safe for concurrent use; the unit engine
// calls Golden from multiple workers.
type GoldenSource interface {
	Golden(req GoldenRequest) (trace.Trace, error)
}

// benchPool is the free list behind both analog golden sources. A
// bench owns mutable simulator state (input-source signals, device
// charge state), so one instance cannot run two transients at once:
// each concurrent request takes a private instance, and extra instances
// are built on demand.
type benchPool[B any] struct {
	build func() (B, error)

	mu   sync.Mutex
	free []B
}

func (p *benchPool[B]) acquire() (B, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b, nil
	}
	p.mu.Unlock()
	return p.build()
}

func (p *benchPool[B]) release(b B) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// lease pins one pooled bench until the returned release runs.
func (p *benchPool[B]) lease() (B, func(), error) {
	b, err := p.acquire()
	if err != nil {
		return b, nil, err
	}
	return b, func() { p.release(b) }, nil
}

// use runs f on a private bench instance. A bench whose run panics is
// not returned to the pool.
func use[B, R any](p *benchPool[B], f func(B) (R, error)) (R, error) {
	b, err := p.acquire()
	if err != nil {
		var zero R
		return zero, err
	}
	out, err := f(b)
	p.release(b)
	return out, err
}

// SolverStatser is implemented by benches and golden sources that can
// report cumulative MNA solver counters (factorizations, Newton
// iterations, sparse-mode traffic) for the traffic reports.
type SolverStatser interface {
	SolverStats() spice.SolverStats
}

// SolverStats aggregates the solver counters of the pooled bench
// instances. Only idle (released) instances are counted; between jobs
// the pool is fully idle, so a job-end snapshot sees every transient
// the source ever ran.
func (p *benchPool[B]) SolverStats() spice.SolverStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var st spice.SolverStats
	for _, b := range p.free {
		if ss, ok := any(b).(SolverStatser); ok {
			st.Add(ss.SolverStats())
		}
	}
	return st
}

// BenchSource is a GoldenSource backed by a pool of a gate's
// transistor-level analog benches.
type BenchSource struct {
	gate   gate.Gate
	params nor.Params
	benchPool[gate.Bench]
}

// NewGateBenchSource wraps any gate bench as a concurrency-safe golden
// source. The given bench seeds the free list; additional instances are
// built on demand from its gate and parameters.
func NewGateBenchSource(b gate.Bench) *BenchSource {
	g, p := b.Gate(), b.Params()
	return &BenchSource{gate: g, params: p, benchPool: benchPool[gate.Bench]{
		build: func() (gate.Bench, error) { return g.NewBench(p) },
		free:  []gate.Bench{b},
	}}
}

// Gate returns the gate all bench instances implement.
func (s *BenchSource) Gate() gate.Gate { return s.gate }

// Params returns the bench parameters all instances share.
func (s *BenchSource) Params() nor.Params { return s.params }

// Golden implements GoldenSource by running the analog transient on a
// private bench instance.
func (s *BenchSource) Golden(req GoldenRequest) (trace.Trace, error) {
	return use(&s.benchPool, func(b gate.Bench) (trace.Trace, error) { return b.Golden(req.Inputs, req.Until) })
}

// Leaser is implemented by golden sources that can lease a dedicated
// single-goroutine view for a run of consecutive units (batched
// transients). The leased source must only be used by one goroutine and
// must be released with the returned function when the batch is done.
// Leasing amortizes the per-unit free-list round trip and keeps one
// warm bench (and its solver workspace) pinned to the worker for the
// whole batch; the computed results are identical to the unleased path.
type Leaser interface {
	Lease() (GoldenSource, func(), error)
}

// leasedBench is a BenchSource lease: one pinned bench, no locking.
type leasedBench struct {
	b gate.Bench
}

// Golden implements GoldenSource on the pinned bench.
func (l leasedBench) Golden(req GoldenRequest) (trace.Trace, error) {
	return l.b.Golden(req.Inputs, req.Until)
}

// Lease implements Leaser by pinning one pooled bench until release.
func (s *BenchSource) Lease() (GoldenSource, func(), error) {
	b, release, err := s.lease()
	if err != nil {
		return nil, nil, err
	}
	return leasedBench{b: b}, release, nil
}

// GoldenKey is the content key of one golden run: the gate name, the
// bench parameters and the (config, seed) pair the inputs derive from.
// All fields are comparable value types, so keys can index a map
// directly. The gate name is part of the key so traces of different
// gates sharing one parameter set (the benches are all built from
// nor.Params) never collide.
type GoldenKey struct {
	Gate   string
	Bench  nor.Params
	Config gen.Config
	Seed   int64
}

// goldenSlot keys one entry of a GoldenCache's table: single traces
// and circuit trace sets under the same GoldenKey are distinct entries.
type goldenSlot struct {
	key GoldenKey
	set bool
}

// goldenValue is one cached result: a single trace, or a circuit trace
// set when the slot is a set.
type goldenValue struct {
	tr  trace.Trace
	set map[string]trace.Trace
}

// traceCost is the eviction cost of one digitized trace: its stored
// transitions, plus one so even an empty trace has positive weight.
func traceCost(tr trace.Trace) int64 { return int64(1 + len(tr.Events)) }

// goldenCost weighs a cached value against the SetLimit budget: a
// trace set sums its member traces.
func goldenCost(v goldenValue) int64 {
	if v.set == nil {
		return traceCost(v.tr)
	}
	var c int64
	//hybrid:nondet-ok commutative integer sum; total is independent of visit order
	for _, tr := range v.set {
		c += traceCost(tr)
	}
	return max(c, 1)
}

// GoldenCache memoizes digitized golden traces by GoldenKey on a
// memo.Cache: singleflight per key, failed computations not cached, and
// a waiter whose leader failed retries as (or behind) a new leader. A
// cache may be shared across runs, gates, benches and worker counts —
// the gate name and bench parameters are part of the key.
//
// Single-gate golden traces (GetOrCompute) and composed circuit trace
// sets (GetOrComputeSet, keyed by a netlist content key in the Gate
// field) are separate entries of the same table, so one cache can back
// a whole mixed gate-and-circuit sweep under one budget.
//
// Memory can be bounded with SetLimit: completed entries then form a
// cost-based LRU (cost = stored transitions) and the coldest entries
// are evicted once the budget is exceeded. In-flight computations are
// never evicted, and callers already holding an entry keep their result
// even if it is evicted underneath them.
type GoldenCache struct {
	m        *memo.Cache[goldenSlot, goldenValue]
	diskHits atomic.Int64

	mu    sync.Mutex
	store PersistentStore
}

// PersistentStore is the on-disk tier a GoldenCache can mount below its
// in-memory tables (see internal/store for the content-addressed
// implementation). Load/LoadSet return ok=false on a clean miss;
// corrupt or unreadable entries are also reported as misses (the cache
// recomputes and overwrites them). Implementations must be safe for
// concurrent use. Store errors never fail a lookup — the cache treats
// the tier as strictly best-effort.
type PersistentStore interface {
	Load(key GoldenKey) (trace.Trace, bool, error)
	Save(key GoldenKey, tr trace.Trace) error
	LoadSet(key GoldenKey) (map[string]trace.Trace, bool, error)
	SaveSet(key GoldenKey, set map[string]trace.Trace) error
}

// SetStore mounts a persistent read-through/write-behind tier below the
// in-memory cache: misses consult the store before computing, and
// freshly computed traces are saved back. Mount the store before
// handing the cache to workers; nil unmounts.
func (c *GoldenCache) SetStore(p PersistentStore) {
	c.mu.Lock()
	c.store = p
	c.mu.Unlock()
}

// NewGoldenCache returns an empty golden-trace cache.
func NewGoldenCache() *GoldenCache {
	return &GoldenCache{m: memo.New[goldenSlot](goldenCost)}
}

// SetLimit bounds the cache's memory: budget is the total cost the
// completed entries may hold, where one entry costs its stored
// transitions (a circuit trace set sums its member traces). Exceeding
// the budget evicts least-recently-used entries; a zero (or negative)
// budget removes the bound. Shrinking below the current total evicts
// immediately. An entry larger than the whole budget is admitted and
// then evicted right away — callers still get their result, the cache
// just refuses to retain it.
func (c *GoldenCache) SetLimit(budget int64) { c.m.SetLimit(budget) }

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	Hits      int64 // lookups served from a cached or in-flight entry
	Misses    int64 // lookups not served from memory
	DiskHits  int64 // memory misses served from the persistent store tier
	Evictions int64 // completed entries dropped by the memory bound
	Entries   int   // completed entries currently stored
}

// Stats returns a snapshot of the cache counters. Entries counts
// completed single-trace and circuit trace-set entries together.
func (c *GoldenCache) Stats() CacheStats {
	st := c.m.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, DiskHits: c.diskHits.Load(), Evictions: st.Evictions, Entries: st.Entries}
}

// GetOrCompute returns the cached trace for key, or runs compute exactly
// once among concurrent callers for the key (they block on the first
// caller's result). Errors are not cached: the caller that computed gets
// the error, and a concurrent waiter whose leader failed retries as (or
// behind) a new leader, so a later call retries too.
func (c *GoldenCache) GetOrCompute(key GoldenKey, compute func() (trace.Trace, error)) (trace.Trace, error) {
	out, _, err := c.GetOrComputeTracked(key, compute)
	return out, err
}

// GetOrComputeTracked is GetOrCompute with per-call attribution: hit
// reports whether this lookup was served without computing — from a
// cached or in-flight entry, or from the persistent store (false when
// it computed, and false for errors). Errors are not cached and reach
// only the caller that computed them; a waiter whose leader failed
// retries as (or behind) a new leader. The sweep engine uses the hit
// flag to account hit rates per scenario on a cache shared across the
// whole grid.
func (c *GoldenCache) GetOrComputeTracked(key GoldenKey, compute func() (trace.Trace, error)) (trace.Trace, bool, error) {
	v, hit, err := c.lookup(goldenSlot{key: key}, func() (goldenValue, error) {
		tr, err := compute()
		return goldenValue{tr: tr}, err
	})
	return v.tr, hit, err
}

// GetOrComputeSet is the multi-trace counterpart of
// GetOrComputeTracked for composed circuit golden runs: one transient
// produces the digitized traces of every recorded net, memoized
// together under a single key (conventionally carrying the netlist
// content key in the Gate field). Semantics mirror GetOrComputeTracked:
// singleflight per key, errors not cached and reaching only the caller
// that computed them (a waiter whose leader failed retries as, or
// behind, a new leader), and per-call hit attribution. The returned map
// is shared between callers and must be treated as read-only.
func (c *GoldenCache) GetOrComputeSet(key GoldenKey, compute func() (map[string]trace.Trace, error)) (map[string]trace.Trace, bool, error) {
	v, hit, err := c.lookup(goldenSlot{key: key, set: true}, func() (goldenValue, error) {
		set, err := compute()
		return goldenValue{set: set}, err
	})
	return v.set, hit, err
}

// lookup runs one memoized lookup with the persistent tier inside the
// leader's computation: read-through before computing (a populated
// store serves the miss without any transient solve), write-behind
// after. Store errors degrade to a computed miss or an unsaved result;
// they never fail the lookup.
func (c *GoldenCache) lookup(slot goldenSlot, compute func() (goldenValue, error)) (goldenValue, bool, error) {
	fromDisk := false
	v, hit, err := c.m.Get(context.TODO(), slot, func() (goldenValue, error) {
		c.mu.Lock()
		store := c.store
		c.mu.Unlock()
		if store != nil {
			if v, ok := loadGolden(store, slot); ok {
				fromDisk = true
				c.diskHits.Add(1)
				return v, nil
			}
		}
		v, err := compute()
		if err == nil && store != nil {
			if slot.set {
				_ = store.SaveSet(slot.key, v.set)
			} else {
				_ = store.Save(slot.key, v.tr)
			}
		}
		return v, err
	})
	return v, hit || fromDisk, err
}

// loadGolden reads one slot from the persistent tier; errors and
// corrupt objects are misses.
func loadGolden(store PersistentStore, slot goldenSlot) (goldenValue, bool) {
	if slot.set {
		set, ok, err := store.LoadSet(slot.key)
		return goldenValue{set: set}, ok && err == nil
	}
	tr, ok, err := store.Load(slot.key)
	return goldenValue{tr: tr}, ok && err == nil
}

// LookupCounts attributes one cached source's lookups: Hits were served
// without computing (memory, in-flight or disk), Misses computed. The
// sweep keeps one per scenario on a cache shared by the whole grid.
type LookupCounts struct {
	Hits, Misses atomic.Int64
}

// add counts one successful lookup; nil counts nothing.
func (c *LookupCounts) add(hit bool, err error) {
	switch {
	case c == nil || err != nil:
	case hit:
		c.Hits.Add(1)
	default:
		c.Misses.Add(1)
	}
}

// CachedSource composes a GoldenCache over an inner GoldenSource. It
// relies on the GoldenRequest invariant that (Config, Seed) determine
// the inputs, which holds for requests built by the evaluation pipeline.
type CachedSource struct {
	Gate   string     // key component naming the gate topology
	Bench  nor.Params // key component identifying the golden reference
	Cache  *GoldenCache
	Src    GoldenSource
	Counts *LookupCounts // when non-nil, attributes this source's lookups
}

// Golden implements GoldenSource with memoization.
func (s CachedSource) Golden(req GoldenRequest) (trace.Trace, error) {
	key := GoldenKey{Gate: s.Gate, Bench: s.Bench, Config: req.Config, Seed: req.Seed}
	out, hit, err := s.Cache.GetOrComputeTracked(key, func() (trace.Trace, error) {
		return s.Src.Golden(req)
	})
	s.Counts.add(hit, err)
	return out, err
}

// Lease implements Leaser by leasing the inner source when it supports
// leasing; the cache stays in front, so leased units still hit it.
func (s CachedSource) Lease() (GoldenSource, func(), error) {
	l, ok := s.Src.(Leaser)
	if !ok {
		return s, func() {}, nil
	}
	inner, release, err := l.Lease()
	if err != nil {
		return nil, nil, err
	}
	leased := s
	leased.Src = inner
	return leased, release, nil
}
