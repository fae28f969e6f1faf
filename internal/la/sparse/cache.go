package sparse

import (
	"context"
	"encoding/binary"
	"math"
	"strings"

	"hybriddelay/internal/la"
	"hybriddelay/internal/memo"
)

// This file adds the process-wide amortization layer over Analyze:
// where the golden and parametrization caches skip re-simulating and
// re-fitting identical workloads, the SymbolicCache skips re-running
// the Markowitz pilot for identical sparsity structures. Every pooled
// bench clone, batched transient and serve tenant solving the same
// topology at the same operating point shares one immutable *Symbolic
// (documented safe for concurrent use) instead of each paying its own
// symbolic analysis. Like the other two caches it is a thin typed
// front over internal/memo, which holds the singleflight, LRU,
// error and generation rules; this file adds only the content key.

// CacheStats reports symbolic-cache effectiveness counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`      // lookups served from a cached or in-flight analysis
	Misses    int64 `json:"misses"`    // lookups that ran Analyze (exactly one Analyze per miss)
	Evictions int64 `json:"evictions"` // completed analyses dropped by the memory bound
	Entries   int   `json:"entries"`   // completed analyses currently stored
}

// Add accumulates counters from another snapshot.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
}

// SymbolicCache memoizes Analyze results by content key: the caller's
// scope string, the system size, the (normalized) Options and the raw
// pattern offsets. It is safe for concurrent use and deduplicates
// in-flight analyses (singleflight): the first requester of a key runs
// the pilot, later ones wait for its result. Failed analyses are not
// cached; a waiter whose leader failed retries as (or behind) a new
// leader.
//
// The scope string keeps pivot orders deterministic: the pilot reads
// the representative matrix's *values*, so two different operating
// points with identical patterns must not race to seed one entry.
// Callers set the scope from whatever identifies the operating point
// (gate kind plus bench parameters, a netlist content key); clones of
// one operating point then share, distinct operating points do not.
//
// Generations make staleness re-analysis race-free: every completed
// lookup returns the entry's generation, and Refresh replaces the
// entry only when it still carries the generation the caller saw —
// when a concurrent solver already refreshed it, the newer entry is
// returned as a hit, so N solvers hitting staleness together run
// exactly one new Analyze.
//
// Memory is bounded with SetLimit: completed analyses form an LRU
// (each weighs one) and the coldest are evicted past the bound.
// In-flight analyses are never evicted, and callers already holding a
// Symbolic keep it even if it is evicted underneath them.
type SymbolicCache struct {
	m *memo.Cache[string, *Symbolic]
}

// NewSymbolicCache returns an empty cache bounded to limit completed
// analyses (0 or negative = unbounded).
func NewSymbolicCache(limit int) *SymbolicCache {
	c := &SymbolicCache{m: memo.New[string, *Symbolic](nil)}
	c.SetLimit(limit)
	return c
}

// SetLimit bounds the number of retained analyses; zero (or negative)
// removes the bound. Shrinking evicts immediately, coldest first.
func (c *SymbolicCache) SetLimit(n int) { c.m.SetLimit(int64(n)) }

// Stats returns a snapshot of the cache counters.
func (c *SymbolicCache) Stats() CacheStats {
	return CacheStats(c.m.Stats())
}

// cacheKey builds the exact content key: no hashing, so distinct
// structures can never collide. The pattern is keyed as given —
// callers derive it deterministically from topology, so identical
// topologies produce identical slices.
func cacheKey(scope string, n int, pattern []int32, opt Options) string {
	opt.defaults()
	var b strings.Builder
	b.Grow(len(scope) + 21 + 4*len(pattern))
	b.WriteString(scope)
	var hdr [21]byte
	binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
	binary.LittleEndian.PutUint64(hdr[5:], math.Float64bits(opt.PivotRel))
	binary.LittleEndian.PutUint64(hdr[13:], math.Float64bits(opt.RefactorRel))
	b.Write(hdr[:])
	var e [4]byte
	for _, off := range pattern {
		binary.LittleEndian.PutUint32(e[:], uint32(off))
		b.Write(e[:])
	}
	return b.String()
}

// Get returns the shared Symbolic for (scope, a's size, pattern, opt),
// analyzing at most once per key: concurrent callers for the same key
// block on the first caller's result. hit reports whether the analysis
// was shared; gen identifies the returned entry for a later Refresh.
func (c *SymbolicCache) Get(scope string, a *la.Matrix, pattern []int32, opt Options) (sym *Symbolic, gen uint64, hit bool, err error) {
	return c.Refresh(scope, a, pattern, opt, 0)
}

// Refresh re-analyzes after a staleness signal (ErrPivot): the caller
// passes the generation it obtained the stale Symbolic under. If the
// cache still holds that generation, this caller replaces it with a
// fresh analysis of a's current values; if another solver already
// refreshed the entry, the newer analysis is returned as a hit and no
// new pilot runs. Generation 0 is never assigned, so Get is Refresh
// against generation 0.
func (c *SymbolicCache) Refresh(scope string, a *la.Matrix, pattern []int32, opt Options, oldGen uint64) (sym *Symbolic, gen uint64, hit bool, err error) {
	return c.m.Refresh(context.TODO(), cacheKey(scope, a.Rows, pattern, opt), oldGen, func() (*Symbolic, error) {
		return Analyze(a, pattern, opt)
	})
}
