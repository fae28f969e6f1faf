package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/pool"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// SeedResult is the outcome of one evaluation unit: one waveform
// configuration run once with one seed, scored against the golden
// reference.
type SeedResult struct {
	Config   gen.Config
	Seed     int64
	Area     map[string]float64 // absolute deviation area per model [s]
	GoldenEv int                // golden output transitions observed
}

// EvaluateSeed runs the pipeline for a single (config, seed) unit:
// generate the random inputs, obtain the digitized golden trace from the
// source, run every delay model and measure the deviation areas. It is
// the building block both the serial Evaluate and the unit engine
// (RunGate) are assembled from. The configuration's input count must
// match the model gate's arity.
func EvaluateSeed(golden GoldenSource, m Models, cfg gen.Config, seed int64) (SeedResult, error) {
	return EvaluateSeedContext(context.Background(), golden, m, cfg, seed)
}

// EvaluateSeedContext is EvaluateSeed with cancellation: ctx is checked
// between the unit's stages (trace generation, the golden run, the
// model runs), so a cancelled evaluation stops before its next analog
// transient instead of running the unit to completion.
func EvaluateSeedContext(ctx context.Context, golden GoldenSource, m Models, cfg gen.Config, seed int64) (SeedResult, error) {
	res := SeedResult{Config: cfg, Seed: seed, Area: map[string]float64{}}
	if m.Gate == nil {
		return res, fmt.Errorf("eval: Models.Gate is unset (build models through a registered gate)")
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	inputs, err := gen.Traces(cfg, seed)
	if err != nil {
		return res, err
	}
	if len(inputs) != m.Gate.Arity() {
		return res, fmt.Errorf("eval: gate %s needs %d inputs, config has %d",
			m.Gate.Name(), m.Gate.Arity(), len(inputs))
	}
	until := gen.Horizon(inputs, 600*waveform.Pico)
	g, err := golden.Golden(GoldenRequest{Config: cfg, Seed: seed, Inputs: inputs, Until: until})
	if err != nil {
		return res, fmt.Errorf("eval: seed %d: %w", seed, err)
	}
	res.GoldenEv = g.NumEvents()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	models, err := RunModels(m, inputs, until)
	if err != nil {
		return res, fmt.Errorf("eval: seed %d: %w", seed, err)
	}
	//hybrid:nondet-ok each model writes its own Area[name]; distinct keys, so visit order cannot change the result
	for name, tr := range models {
		res.Area[name] = trace.DeviationArea(g, tr, 0, until)
	}
	return res, nil
}

// MergeSeedResults folds per-seed results into a RunResult. Results are
// summed in the given order, so for a fixed seed order the merged
// floating-point sums are identical no matter how many workers produced
// the parts — this is what makes the unit engine deterministic.
func MergeSeedResults(cfg gen.Config, parts []SeedResult) RunResult {
	res := RunResult{
		Config:     cfg,
		Seeds:      make([]int64, 0, len(parts)),
		Area:       map[string]float64{},
		Normalized: map[string]float64{},
	}
	for _, p := range parts {
		res.Seeds = append(res.Seeds, p.Seed)
		res.GoldenEv += p.GoldenEv
		//hybrid:nondet-ok one visit per distinct model key per part; parts fold in fixed slice order, so the float sums are reproducible
		for name, a := range p.Area {
			res.Area[name] += a
		}
	}
	base := res.Area[ModelInertial]
	//hybrid:nondet-ok each model writes its own Normalized[name] from a base read before the loop; distinct keys
	for name, a := range res.Area {
		if base <= 0 {
			// No inertial deviation to normalize against: the ratio is
			// undefined, not astronomically large (see RunResult.Normalized).
			res.Normalized[name] = math.NaN()
		} else {
			res.Normalized[name] = a / base
		}
	}
	return res
}

// Units is one job's list of evaluation units for RunUnits, indexed
// 0..N-1. S is the golden source type the units run against: an
// interface a leased view also satisfies (GoldenSource,
// CircuitGoldenSource, or any for mixed grids).
type Units[S any] struct {
	// N is the number of units.
	N int
	// Workers bounds the worker pool; values below one select one.
	Workers int
	// PerSource groups the units into consecutive blocks of PerSource
	// units that share one golden source: unit i runs against
	// Source(i / PerSource). Zero puts every unit in one block.
	PerSource int
	// Source returns the golden source of a block. When it implements
	// Leaser or CircuitLeaser, each run of consecutive same-block units
	// a worker claims runs on one lease of it.
	Source func(block int) S
	// Run evaluates unit i against src. Results belong in slots the
	// caller indexes by i, so the merge is independent of scheduling.
	Run func(ctx context.Context, src S, i int) error
	// Done, when non-nil, is called after each unit that ran, with the
	// unit's error. Calls are serialized and completed rises strictly
	// from 1.
	Done func(i, completed int, err error)
}

// RunUnits is the one unit engine every job flavour schedules on —
// gate jobs (RunGate), circuit jobs (RunCircuit) and scenario sweeps.
// Workers claim batches of ceil(N / (2·workers)) consecutive units, and
// within a batch each run of units sharing a source block takes one
// lease (a failed lease falls back to the unleased source), keeping a
// warm bench pinned to the worker. ctx is checked before each unit;
// the first unit error stops new claims. A panicking unit becomes its
// unit's error (see pool.RunContext), and its leased bench, whose
// transient state is then unknown, is not returned to the pool.
//
// RunUnits returns the earliest-index unit error, except that context
// errors of a cancelled run collapse into the run's own ctx.Err().
func RunUnits[S any](ctx context.Context, u Units[S]) error {
	workers := max(1, u.Workers)
	per := u.PerSource
	if per <= 0 {
		per = max(1, u.N)
	}
	batch := max(1, (u.N+2*workers-1)/(2*workers))
	nBatches := (u.N + batch - 1) / batch
	// A batch stops at its first error, and batches cover ascending
	// index ranges, so the earliest failed batch holds the
	// earliest-index unit error.
	errs := make([]error, nBatches)
	var mu sync.Mutex
	completed := 0
	ctxErr := pool.RunContext(ctx, nBatches, workers, func(b int) (err error) {
		var (
			src     S
			release func()
			block   = -1
		)
		panicked := true
		defer func() {
			if release != nil && !panicked {
				release()
			}
		}()
		for i := b * batch; i < min(u.N, (b+1)*batch) && err == nil; i++ {
			if err = ctx.Err(); err != nil {
				break
			}
			if i/per != block {
				if release != nil {
					release()
				}
				block = i / per
				src, release = lease(u.Source(block))
			}
			err = u.Run(ctx, src, i)
			if u.Done != nil {
				mu.Lock()
				completed++
				u.Done(i, completed, err)
				mu.Unlock()
			}
		}
		panicked = false
		return err
	}, func(b, _ int, err error) { errs[b] = err })
	for _, err := range errs {
		if err != nil && !(ctxErr != nil && IsContextErr(err)) {
			return err
		}
	}
	return ctxErr
}

// lease pins src for one run of units when it supports leasing. A
// failed lease falls back to the shared source: if the bench
// constructor is broken, the unit's own golden run reproduces the
// error with full context. The returned release is nil when nothing
// was leased.
func lease[S any](src S) (S, func()) {
	var (
		leased  any
		release func()
		err     error
	)
	switch l := any(src).(type) {
	case Leaser:
		leased, release, err = l.Lease()
	case CircuitLeaser:
		leased, release, err = l.LeaseCircuit()
	default:
		return src, nil
	}
	if err != nil {
		return src, nil
	}
	return leased.(S), release
}

// IsContextErr reports whether an error is (or wraps) a context
// cancellation. The engine uses it to collapse context-flavoured unit
// errors into a cancelled run's single ctx.Err().
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunGate evaluates every (config, seed) unit of a gate job against src
// on the unit engine — config-major, seed-minor — and returns one
// merged RunResult per configuration, in input order. For a fixed seed
// list the rows are bit-identical to the serial EvaluateBench for every
// worker count. done is passed to Units.Done; unit i is configuration
// i / len(seeds) under seed i % len(seeds).
func RunGate(ctx context.Context, src GoldenSource, m Models, configs []gen.Config, seeds []int64,
	workers int, done func(i, completed int, err error)) ([]RunResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("eval: no seeds supplied")
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("eval: no configurations supplied")
	}
	parts := make([]SeedResult, len(configs)*len(seeds))
	err := RunUnits(ctx, Units[GoldenSource]{
		N: len(parts), Workers: workers,
		Source: func(int) GoldenSource { return src },
		Run: func(ctx context.Context, src GoldenSource, i int) (err error) {
			parts[i], err = EvaluateSeedContext(ctx, src, m, configs[i/len(seeds)], seeds[i%len(seeds)])
			return err
		},
		Done: done,
	})
	if err != nil {
		return nil, err
	}
	out := make([]RunResult, len(configs))
	for ci, cfg := range configs {
		out[ci] = MergeSeedResults(cfg, parts[ci*len(seeds):(ci+1)*len(seeds)])
	}
	return out, nil
}
