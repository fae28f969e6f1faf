// Package memo is the one memoization primitive behind the repo's
// caches (golden traces, prepared operating points, symbolic
// analyses): a generic, concurrency-safe, cost-bounded LRU with
// singleflight per key.
//
// The rules every cache built on it shares:
//
//   - Singleflight: the first requester of a key (the leader) runs the
//     computation; concurrent requesters wait for its result.
//   - Failed computations are never cached. A waiter whose leader
//     failed retries as, or behind, a new leader unless its own ctx is
//     done — one caller's cancellation or failure never poisons
//     another's lookup. A leader whose computation panics counts as
//     failed; the panic itself continues up the leader's stack.
//   - Completed entries form an LRU bounded by a total cost budget
//     (SetLimit). Past the budget the coldest entries are evicted; an
//     entry larger than the whole budget is returned to its caller and
//     then evicted. In-flight entries are never evicted, and callers
//     already holding a value keep it.
//   - Every entry carries a generation, unique and increasing per
//     cache. Refresh replaces an entry only while it still carries the
//     generation the caller saw, so N stale callers run one recompute.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      int64 // lookups served from a completed or in-flight entry
	Misses    int64 // lookups that ran the computation (one per leader)
	Evictions int64 // completed entries dropped by the cost budget
	Entries   int   // completed entries currently stored
}

// entry is one cache slot. ready is closed once val/err are set. elem
// is non-nil exactly while the completed entry sits in the LRU ring;
// in-flight and failed entries never join it.
type entry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	err   error
	gen   uint64
	cost  int64
	elem  *list.Element
}

// Cache memoizes values of type V by key K. The zero value is not
// usable; construct caches with New.
type Cache[K comparable, V any] struct {
	cost func(V) int64

	mu        sync.Mutex
	table     map[K]*entry[K, V]
	lru       list.List // of *entry[K, V], most recently used first
	limit     int64     // cost budget; 0 = unbounded
	total     int64     // summed cost of the entries in lru
	nextGen   uint64
	hits      int64
	misses    int64
	evictions int64
}

// New returns an empty, unbounded cache. cost weighs a completed value
// against the SetLimit budget; nil weighs every value one, making the
// budget an entry count.
func New[K comparable, V any](cost func(V) int64) *Cache[K, V] {
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	return &Cache[K, V]{cost: cost, table: map[K]*entry[K, V]{}}
}

// SetLimit bounds the summed cost of the completed entries; zero or
// negative removes the bound. Shrinking below the current total evicts
// immediately, coldest first.
func (c *Cache[K, V]) SetLimit(budget int64) {
	c.mu.Lock()
	c.limit = max(budget, 0)
	c.evictOverLocked()
	c.mu.Unlock()
}

// evictOverLocked drops entries from the cold end of the LRU ring until
// the budget is met. Caller holds mu.
func (c *Cache[K, V]) evictOverLocked() {
	for c.limit > 0 && c.total > c.limit && c.lru.Len() > 0 {
		e := c.lru.Remove(c.lru.Back()).(*entry[K, V])
		e.elem = nil
		c.total -= e.cost
		delete(c.table, e.key)
		c.evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.lru.Len()}
}

// Values returns the completed values, most recently used first.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).val)
	}
	return out
}

// Get returns the value for key, running compute at most once among
// concurrent callers (see the package rules). hit reports whether the
// value came from another caller's computation. ctx bounds only the
// wait for another caller's result; compute must observe its own
// cancellation.
func (c *Cache[K, V]) Get(ctx context.Context, key K, compute func() (V, error)) (V, bool, error) {
	v, _, hit, err := c.Refresh(ctx, key, 0, compute)
	return v, hit, err
}

// Refresh is Get that also reports the generation of the returned
// entry and replaces the completed entry for key when it still carries
// generation stale. When a concurrent caller already replaced it, the
// newer entry is served as a hit. Generations start at 1, so stale 0
// never replaces anything.
func (c *Cache[K, V]) Refresh(ctx context.Context, key K, stale uint64, compute func() (V, error)) (V, uint64, bool, error) {
	for {
		c.mu.Lock()
		e, ok := c.table[key]
		if ok && e.elem != nil && e.gen == stale {
			// Stale completed entry this caller replaces: unlink it
			// without counting an eviction.
			c.lru.Remove(e.elem)
			e.elem = nil
			c.total -= e.cost
		} else if ok {
			if e.elem != nil {
				c.hits++
				c.lru.MoveToFront(e.elem)
				c.mu.Unlock()
				return e.val, e.gen, true, nil
			}
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				var zero V
				return zero, 0, false, ctx.Err()
			}
			if e.err == nil {
				c.mu.Lock()
				c.hits++
				if e.elem != nil {
					c.lru.MoveToFront(e.elem)
				}
				c.mu.Unlock()
				return e.val, e.gen, true, nil
			}
			// The leader failed and its entry is gone: retry as, or
			// behind, a new leader unless this caller is done too.
			if err := ctx.Err(); err != nil {
				var zero V
				return zero, 0, false, err
			}
			continue
		}
		c.nextGen++
		e = &entry[K, V]{key: key, ready: make(chan struct{}), gen: c.nextGen}
		c.table[key] = e
		c.misses++
		c.mu.Unlock()

		v, err := c.lead(e, compute)
		return v, e.gen, false, err
	}
}

// errLeaderPanicked is the error a leader's entry settles with when its
// compute panics.
var errLeaderPanicked = errors.New("memo: leader computation panicked")

// lead runs compute as the leader of entry e and settles it. A
// panicking compute settles e as failed — deleted, ready closed — so its
// waiters follow the failed-leader rule instead of waiting forever, and
// the panic continues up the leader's stack.
func (c *Cache[K, V]) lead(e *entry[K, V], compute func() (V, error)) (v V, err error) {
	err = errLeaderPanicked
	defer func() {
		var cost int64
		if err == nil {
			cost = c.cost(v)
		}
		c.mu.Lock()
		e.val, e.err, e.cost = v, err, cost
		if err != nil {
			delete(c.table, e.key)
		} else {
			e.elem = c.lru.PushFront(e)
			c.total += e.cost
			c.evictOverLocked()
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	return compute()
}
