package eval

import (
	"context"
	"fmt"
	"math"

	"hybriddelay/internal/dtsim"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// This file lifts the Fig. 7 accuracy pipeline from one gate to whole
// circuits: a netlist's composed analog bench produces a golden trace
// per recorded net, every delay model is elaborated over the same
// netlist as a topological dataflow of its offline per-gate appliers,
// and each recorded net is scored by deviation area — the single-gate
// pipeline is the exact one-instance special case (bit-identical, see
// the property test).

// CircuitGoldenSource produces the digitized composed golden traces of
// a netlist run, one per recorded net. Implementations must be safe for
// concurrent use.
type CircuitGoldenSource interface {
	GoldenNets(req GoldenRequest) (map[string]trace.Trace, error)
}

// CircuitBenchSource is a CircuitGoldenSource backed by a pool of
// composed transistor-level benches, one handed to each concurrent
// request (the same free list as BenchSource).
type CircuitBenchSource struct {
	benchPool[*netlist.Bench]
}

// NewCircuitBenchSource wraps a composed bench as a concurrency-safe
// golden source; extra instances are cloned on demand.
func NewCircuitBenchSource(b *netlist.Bench) *CircuitBenchSource {
	return &CircuitBenchSource{benchPool[*netlist.Bench]{build: b.Clone, free: []*netlist.Bench{b}}}
}

// GoldenNets implements CircuitGoldenSource on a private bench.
func (s *CircuitBenchSource) GoldenNets(req GoldenRequest) (map[string]trace.Trace, error) {
	return use(&s.benchPool, func(b *netlist.Bench) (map[string]trace.Trace, error) { return b.Golden(req.Inputs, req.Until) })
}

// CircuitLeaser is the circuit counterpart of Leaser: sources that can
// pin one composed bench to a single goroutine for a batch of
// consecutive units.
type CircuitLeaser interface {
	LeaseCircuit() (CircuitGoldenSource, func(), error)
}

// leasedCircuitBench is a CircuitBenchSource lease: one pinned bench.
type leasedCircuitBench struct {
	b *netlist.Bench
}

// GoldenNets implements CircuitGoldenSource on the pinned bench.
func (l leasedCircuitBench) GoldenNets(req GoldenRequest) (map[string]trace.Trace, error) {
	return l.b.Golden(req.Inputs, req.Until)
}

// LeaseCircuit implements CircuitLeaser by pinning one pooled bench.
func (s *CircuitBenchSource) LeaseCircuit() (CircuitGoldenSource, func(), error) {
	b, release, err := s.lease()
	if err != nil {
		return nil, nil, err
	}
	return leasedCircuitBench{b: b}, release, nil
}

// CachedCircuitSource composes a GoldenCache over an inner circuit
// source, keyed by the netlist content key (Gate field carries
// "circuit:" + Netlist.ContentKey()) and the bench parameters — the
// circuit-level counterpart of CachedSource.
type CachedCircuitSource struct {
	Key    string // netlist content key
	Bench  nor.Params
	Cache  *GoldenCache
	Src    CircuitGoldenSource
	Counts *LookupCounts // when non-nil, attributes this source's lookups
}

// CircuitKey builds the cache key of one composed golden run.
func CircuitKey(contentKey string, bench nor.Params, cfg gen.Config, seed int64) GoldenKey {
	return GoldenKey{Gate: "circuit:" + contentKey, Bench: bench, Config: cfg, Seed: seed}
}

// GoldenNets implements CircuitGoldenSource with memoization.
func (s CachedCircuitSource) GoldenNets(req GoldenRequest) (map[string]trace.Trace, error) {
	out, hit, err := s.Cache.GetOrComputeSet(CircuitKey(s.Key, s.Bench, req.Config, req.Seed),
		func() (map[string]trace.Trace, error) { return s.Src.GoldenNets(req) })
	s.Counts.add(hit, err)
	return out, err
}

// LeaseCircuit implements CircuitLeaser by leasing the inner source
// when it supports leasing; the cache stays in front.
func (s CachedCircuitSource) LeaseCircuit() (CircuitGoldenSource, func(), error) {
	l, ok := s.Src.(CircuitLeaser)
	if !ok {
		return s, func() {}, nil
	}
	inner, release, err := l.LeaseCircuit()
	if err != nil {
		return nil, nil, err
	}
	leased := s
	leased.Src = inner
	return leased, release, nil
}

// applyInstanceModel runs one instance's inputs through the named delay
// model of its gate's model set — the per-instance unit of the circuit
// dataflow, matching RunModels' per-gate semantics exactly.
func applyInstanceModel(m Models, model string, in []trace.Trace, until float64) (trace.Trace, error) {
	switch model {
	case ModelInertial:
		return m.Inertial.Apply(m.Gate.Logic, in...), nil
	case ModelExp:
		return dtsim.ApplyDelay(trace.Combine(m.Gate.Logic, in...), m.Exp), nil
	case ModelHM:
		return m.HM.Apply(in, until)
	case ModelHMNoDMin:
		return m.HMNoDMin.Apply(in, until)
	}
	return trace.Trace{}, fmt.Errorf("eval: unknown model %q", model)
}

// CircuitSeedResult is the outcome of one circuit evaluation unit: one
// configuration run once with one seed, scored per recorded net.
type CircuitSeedResult struct {
	Config gen.Config
	Seed   int64
	// Nets lists the recorded nets in report order; the maps below are
	// keyed by these names. Iterate Nets (not the maps) wherever
	// floating-point sums must stay deterministic.
	Nets []string
	// Area maps net -> model -> absolute deviation area [s].
	Area map[string]map[string]float64
	// GoldenEv maps net -> golden output transitions observed.
	GoldenEv map[string]int
}

// EvaluateCircuitSeed runs the circuit pipeline for a single
// (config, seed) unit: generate the primary input traces, obtain the
// composed golden traces, elaborate every delay model over the netlist
// in topological order and measure each recorded net's deviation area.
// The configuration's input count must match the netlist's primary
// input count.
func EvaluateCircuitSeed(golden CircuitGoldenSource, nl *netlist.Netlist, ms netlist.ModelSet,
	cfg gen.Config, seed int64) (CircuitSeedResult, error) {
	return EvaluateCircuitSeedContext(context.Background(), golden, nl, ms, cfg, seed)
}

// EvaluateCircuitSeedContext is EvaluateCircuitSeed with cancellation:
// ctx is checked between the unit's stages (trace generation, the
// composed golden run, each model's dataflow walk).
func EvaluateCircuitSeedContext(ctx context.Context, golden CircuitGoldenSource, nl *netlist.Netlist,
	ms netlist.ModelSet, cfg gen.Config, seed int64) (CircuitSeedResult, error) {
	res := CircuitSeedResult{Config: cfg, Seed: seed, Nets: nl.Recorded(),
		Area: map[string]map[string]float64{}, GoldenEv: map[string]int{}}
	if len(nl.Inputs) != cfg.Inputs {
		return res, fmt.Errorf("eval: netlist has %d primary inputs, config has %d", len(nl.Inputs), cfg.Inputs)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	inputs, err := gen.Traces(cfg, seed)
	if err != nil {
		return res, err
	}
	until := gen.Horizon(inputs, 600*waveform.Pico)
	g, err := golden.GoldenNets(GoldenRequest{Config: cfg, Seed: seed, Inputs: inputs, Until: until})
	if err != nil {
		return res, fmt.Errorf("eval: circuit seed %d: %w", seed, err)
	}
	for _, net := range res.Nets {
		if _, ok := g[net]; !ok {
			return res, fmt.Errorf("eval: circuit seed %d: golden source returned no trace for net %q", seed, net)
		}
		res.Area[net] = map[string]float64{}
		res.GoldenEv[net] = g[net].NumEvents()
	}
	for _, model := range ModelNames {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		nets, err := nl.Walk(inputs, func(inst netlist.Instance, gg gate.Gate, in []trace.Trace) (trace.Trace, error) {
			m, err := ms.For(inst)
			if err != nil {
				return trace.Trace{}, err
			}
			return applyInstanceModel(m, model, in, until)
		})
		if err != nil {
			return res, fmt.Errorf("eval: circuit seed %d: model %s: %w", seed, model, err)
		}
		for _, net := range res.Nets {
			res.Area[net][model] = trace.DeviationArea(g[net], nets[net], 0, until)
		}
	}
	return res, nil
}

// CircuitResult aggregates circuit deviation areas over the repetitions
// of one waveform configuration: per-net and circuit-total areas and
// their inertial-normalized ratios (the Fig. 7 bars per net). As in
// RunResult, a normalized entry is NaN when its inertial baseline
// accumulated zero area.
type CircuitResult struct {
	Netlist string
	Config  gen.Config
	Seeds   []int64
	// Nets lists the recorded nets in report order.
	Nets []string
	// Area and Normalized map net -> model.
	Area       map[string]map[string]float64
	Normalized map[string]map[string]float64
	// TotalArea and TotalNormalized sum over the recorded nets.
	TotalArea       map[string]float64
	TotalNormalized map[string]float64
	// GoldenEv maps net -> golden transitions over all seeds.
	GoldenEv map[string]int
	// Solver aggregates the MNA solver counters of the run's composed
	// bench pool (filled by the session's circuit path; zero when the
	// merge was assembled from parts directly or by RunCircuit).
	Solver spice.SolverStats
}

// normalizeBy divides per-model areas by the inertial baseline, NaN
// when the baseline is not positive.
func normalizeBy(area map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(area))
	base := area[ModelInertial]
	//hybrid:nondet-ok each model writes its own out[name] from a base read before the loop; distinct keys
	for name, a := range area {
		if base <= 0 {
			out[name] = math.NaN()
		} else {
			out[name] = a / base
		}
	}
	return out
}

// MergeCircuitSeedResults folds per-seed circuit results into a
// CircuitResult. Sums run in the given part order and in recorded-net
// order, so for a fixed seed order the merged floating-point sums are
// identical no matter how many workers produced the parts.
func MergeCircuitSeedResults(nl *netlist.Netlist, cfg gen.Config, parts []CircuitSeedResult) CircuitResult {
	res := CircuitResult{
		Netlist:         nl.Name,
		Config:          cfg,
		Seeds:           make([]int64, 0, len(parts)),
		Nets:            nl.Recorded(),
		Area:            map[string]map[string]float64{},
		Normalized:      map[string]map[string]float64{},
		TotalArea:       map[string]float64{},
		TotalNormalized: map[string]float64{},
		GoldenEv:        map[string]int{},
	}
	for _, net := range res.Nets {
		res.Area[net] = map[string]float64{}
	}
	for _, p := range parts {
		res.Seeds = append(res.Seeds, p.Seed)
		for _, net := range res.Nets {
			res.GoldenEv[net] += p.GoldenEv[net]
			//hybrid:nondet-ok one visit per distinct model key per part; parts and nets fold in fixed slice order, so the float sums are reproducible
			for model, a := range p.Area[net] {
				res.Area[net][model] += a
			}
		}
	}
	for _, net := range res.Nets {
		res.Normalized[net] = normalizeBy(res.Area[net])
		for _, model := range ModelNames {
			res.TotalArea[model] += res.Area[net][model]
		}
	}
	res.TotalNormalized = normalizeBy(res.TotalArea)
	return res
}

// RunCircuit evaluates one (config, seed) unit per seed of a circuit
// job against src on the unit engine and merges them in seed order, so
// the result is bit-identical to EvaluateCircuitSeed + merge for every
// worker count. done is passed to Units.Done; unit i is seed i. The
// merged result's Solver is left zero: the caller owns the bench pool
// behind src and reads its counters.
func RunCircuit(ctx context.Context, src CircuitGoldenSource, nl *netlist.Netlist, ms netlist.ModelSet,
	cfg gen.Config, seeds []int64, workers int, done func(i, completed int, err error)) (CircuitResult, error) {
	if len(seeds) == 0 {
		return CircuitResult{}, fmt.Errorf("eval: no seeds supplied")
	}
	parts := make([]CircuitSeedResult, len(seeds))
	err := RunUnits(ctx, Units[CircuitGoldenSource]{
		N: len(seeds), Workers: workers,
		Source: func(int) CircuitGoldenSource { return src },
		Run: func(ctx context.Context, src CircuitGoldenSource, i int) (err error) {
			parts[i], err = EvaluateCircuitSeedContext(ctx, src, nl, ms, cfg, seeds[i])
			return err
		},
		Done: done,
	})
	if err != nil {
		return CircuitResult{}, err
	}
	return MergeCircuitSeedResults(nl, cfg, parts), nil
}
