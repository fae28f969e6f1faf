package eval

import (
	"context"
	"fmt"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/memo"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
)

// This file adds the second memoization layer of the evaluation engine:
// where GoldenCache skips re-simulating identical golden transients,
// ParamCache skips re-preparing identical operating points — the
// Gate.NewBench → Measure → BuildModels chain that every evaluation
// workload runs before its first unit, and by far the most expensive
// per-call fixed cost (a characteristic measurement is a family of
// analog transients plus two least-squares fits). A long-lived Session
// shares one ParamCache across gate evaluations, circuit evaluations
// and sweeps, so repeated workloads at the same operating point never
// re-measure or re-fit.

// ParamKey is the content key of one prepared operating point: the gate
// name, the full bench parameter set the bench is built from, and the
// exp channel's empirical pure delay (the one BuildModels input that is
// not derived from the measurement). All fields are comparable value
// types, so keys index a map directly; distinct operating points (e.g.
// two VDD scales of one gate) always differ in Bench.
type ParamKey struct {
	Gate    string
	Bench   nor.Params
	ExpDMin float64
}

// OperatingPoint is one prepared operating point: the measured
// characteristic turned into the parametrized Fig. 7 model set, plus a
// pooled golden source seeded with the bench the measurement ran on
// (so the construction cost is amortized into the pool too). An
// OperatingPoint is shared between cache users and safe for concurrent
// use: Models is immutable after preparation and BenchSource hands a
// private bench instance to every concurrent golden run.
type OperatingPoint struct {
	Key    ParamKey
	Models gate.Models
	Golden *BenchSource
}

// ParamCache memoizes prepared operating points by ParamKey on a
// memo.Cache: singleflight per key (the first requester measures and
// fits, later ones wait for its result), failed preparations not
// cached, and a waiter whose leader failed retries as (or behind) a
// new leader. One cache may back any mix of workloads — the sweep
// engine's operating-point preparation, circuit model sets and
// single-gate evaluations all key by (gate, bench params, expDMin).
//
// Memory can be bounded with SetLimit: completed operating points then
// form an LRU (each point weighs one — a point's dominant cost, its
// bench pool and model set, is roughly uniform across keys) and the
// coldest points are evicted once the bound is exceeded. In-flight
// preparations are never evicted, and callers already holding a point
// keep it even if it is evicted underneath them.
type ParamCache struct {
	m *memo.Cache[ParamKey, *OperatingPoint]
}

// NewParamCache returns an empty parametrization cache.
func NewParamCache() *ParamCache {
	return &ParamCache{m: memo.New[ParamKey, *OperatingPoint](nil)}
}

// SetLimit bounds the number of retained operating points; zero (or
// negative) removes the bound. Shrinking evicts immediately, coldest
// first.
func (c *ParamCache) SetLimit(n int) { c.m.SetLimit(int64(n)) }

// ParamStats reports parametrization-cache effectiveness counters.
type ParamStats struct {
	Hits      int64 // lookups served from a cached or in-flight operating point
	Misses    int64 // lookups that had to measure and fit
	Evictions int64 // completed operating points dropped by the memory bound
	Entries   int   // completed operating points currently stored
}

// Stats returns a snapshot of the cache counters.
func (c *ParamCache) Stats() ParamStats {
	return ParamStats(c.m.Stats())
}

// SolverStats aggregates the MNA solver counters of every completed
// operating point's bench pool — the measurement transients that
// prepared each point plus every golden run its pool served since.
// Points evicted by the memory bound leave the aggregate.
func (c *ParamCache) SolverStats() spice.SolverStats {
	var st spice.SolverStats
	for _, pt := range c.m.Values() {
		st.Add(pt.Golden.SolverStats())
	}
	return st
}

// OperatingPoint returns the prepared operating point for (g, p,
// expDMin), preparing it at most once among concurrent callers for the
// key: they block on the first caller's result. Errors are not cached,
// so a later call retries; ctx cancels the wait (and aborts a
// preparation before it starts), but never evicts a preparation another
// caller is still waiting on. A waiter whose leader failed — including
// a leader cancelled by its own context — does not inherit the failure:
// it retries the preparation under its own context unless that is done
// too, so concurrent jobs on one session cannot poison each other.
func (c *ParamCache) OperatingPoint(ctx context.Context, g gate.Gate, p nor.Params, expDMin float64) (*OperatingPoint, error) {
	key := ParamKey{Gate: g.Name(), Bench: p, ExpDMin: expDMin}
	pt, _, err := c.m.Get(ctx, key, func() (*OperatingPoint, error) {
		return PrepareOperatingPoint(ctx, g, p, expDMin)
	})
	return pt, err
}

// PrepareOperatingPoint runs the uncached preparation chain for one
// operating point: build a golden bench, measure its characteristic
// delays and parametrize the Fig. 7 model set. ctx aborts between the
// stages; the bench itself seeds the returned source's instance pool.
func PrepareOperatingPoint(ctx context.Context, g gate.Gate, p nor.Params, expDMin float64) (*OperatingPoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bench, err := g.NewBench(p)
	if err != nil {
		return nil, fmt.Errorf("eval: gate %s: bench: %w", g.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	meas, err := bench.Measure()
	if err != nil {
		return nil, fmt.Errorf("eval: gate %s: measure: %w", g.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	models, err := g.BuildModels(meas, p.Supply, expDMin)
	if err != nil {
		return nil, fmt.Errorf("eval: gate %s: models: %w", g.Name(), err)
	}
	return &OperatingPoint{
		Key:    ParamKey{Gate: g.Name(), Bench: p, ExpDMin: expDMin},
		Models: models,
		Golden: NewGateBenchSource(bench),
	}, nil
}
