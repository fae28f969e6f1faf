// Package sweep turns the single-operating-point accuracy study of
// paper §VI (Fig. 7) into a scenario-exploration engine: a declarative
// grid of scenario axes — gate topology (single gates and whole
// netlist circuits), supply-voltage scaling, output load scaling,
// stimulus configuration and seed count — expands into individual
// scenarios, which are evaluated through the gate-generic pipeline of
// internal/eval on one shared bounded worker pool. Circuit scenarios
// run the circuit-level pipeline (composed analog golden, per-net
// scoring summed into the report row) and share their member gates'
// measured operating points with the gate axis.
//
// The engine reuses the existing evaluation machinery end to end: each
// scenario's operating point is prepared with Gate.NewBench / Measure /
// BuildModels, each (scenario, seed) unit runs eval.EvaluateSeed, and
// golden traces are memoized in a single eval.GoldenCache shared across
// the whole grid. Cache keys incorporate the scenario's bench
// parameters (the scaled supply and load are part of nor.Params), so
// distinct operating points never collide even though they share one
// cache. Results are merged deterministically in grid order: for a
// fixed spec the Report — including its JSON and CSV encodings — is
// bit-identical regardless of the worker count.
package sweep

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/pool"
	"hybriddelay/internal/waveform"
)

// Stimulus is one point on the stimulus axis: a waveform-generation
// configuration without the input count (which each gate supplies from
// its arity). Times are seconds, as everywhere in the repository.
type Stimulus struct {
	Mode        gen.Mode `json:"mode"`              // LOCAL or GLOBAL
	Mu          float64  `json:"mu"`                // mean transition gap [s]
	Sigma       float64  `json:"sigma"`             // gap standard deviation [s]
	Transitions int      `json:"transitions"`       // transitions per run
	Start       float64  `json:"start,omitempty"`   // first-transition time [s]; default 200 ps
	MinGap      float64  `json:"min_gap,omitempty"` // lower gap clamp [s]; default 1 ps
}

// Name renders the paper-style label, e.g. "100/50 - LOCAL".
func (s Stimulus) Name() string {
	return fmt.Sprintf("%.0f/%.0f - %s", s.Mu/waveform.Pico, s.Sigma/waveform.Pico, s.Mode)
}

// Config is the generator configuration of the stimulus for a gate or
// circuit with the given input count, with the default start time
// (200 ps) filled in.
func (s Stimulus) Config(inputs int) gen.Config {
	if s.Start <= 0 {
		s.Start = 200 * waveform.Pico
	}
	return gen.Config{
		Mu:          s.Mu,
		Sigma:       s.Sigma,
		Mode:        s.Mode,
		Inputs:      inputs,
		Transitions: s.Transitions,
		Start:       s.Start,
		MinGap:      s.MinGap,
	}
}

// Spec is the declarative scenario grid. The expanded grid is the cross
// product Gates × VDDScale × LoadScale × Stimuli, each evaluated over
// the same seed list; empty scale axes default to {1} and an empty seed
// list defaults to SeedCount consecutive seeds from BaseSeed.
//
// A Spec round-trips through JSON (the `hybridlab sweep -grid` file
// format); the bench base parameters are programmatic only and default
// to the calibrated testbench.
type Spec struct {
	// Gates lists registry names ("nor2", "nand2", "nor3"). Empty
	// defaults to the default gate unless Circuits are given.
	Gates []string `json:"gates,omitempty"`

	// Circuits lists multi-gate netlists swept as circuit-level
	// scenarios alongside the single gates: each circuit crosses the
	// same VDD/load/stimulus axes (the stimulus drives the circuit's
	// primary inputs), is scored through the composed analog golden,
	// and reports the deviation areas summed over its recorded nets
	// (per-net detail is available through a session CircuitJob). Every
	// circuit needs a unique name; its report rows appear under
	// "circuit:<name>".
	Circuits []netlist.Netlist `json:"circuits,omitempty"`

	// VDDScale lists supply-voltage scale factors applied to both VDD
	// and the logic threshold of the base bench supply (the threshold
	// stays at its relative position). Empty defaults to {1}.
	VDDScale []float64 `json:"vdd_scale,omitempty"`

	// LoadScale lists output-load scale factors applied to the bench's
	// output capacitance CO. Empty defaults to {1}.
	LoadScale []float64 `json:"load_scale,omitempty"`

	// Stimuli lists the waveform configurations to cross with the
	// operating points. Required.
	Stimuli []Stimulus `json:"stimuli"`

	// Seeds is the explicit seed list evaluated per scenario. When
	// empty, SeedCount consecutive seeds starting at BaseSeed are used
	// (defaults: 1 seed from base 1; SeedCount at most MaxSeedCount).
	Seeds     []int64 `json:"seeds,omitempty"`
	SeedCount int     `json:"seed_count,omitempty"`
	BaseSeed  int64   `json:"base_seed,omitempty"`

	// ExpDMin is the exp channel's empirical pure delay; default 20 ps.
	ExpDMin float64 `json:"exp_dmin,omitempty"`

	// Bench overrides the base testbench parameters the scale axes are
	// applied to; nil selects nor.DefaultParams().
	Bench *nor.Params `json:"-"`
}

// MaxSeedCount bounds a grid's seed list (Spec.SeedCount or an
// explicit Spec.Seeds, and a served job's seed_count). The list is
// allocated before any unit runs, so an unbounded count from an
// untrusted grid would exhaust memory before the job could fail.
const MaxSeedCount = 1 << 16

// MaxScenarios bounds the scenario count a grid may expand to: the
// product of its topology, VDD-scale, load-scale and stimulus axis
// lengths. Expand allocates the scenario list up front (and a served
// sweep is expanded at submit to validate it), so a small body with
// long axes must be rejected before that allocation.
const MaxScenarios = 1 << 16

// Scenario is one expanded grid point: a gate — or a whole circuit —
// at one operating point under one stimulus configuration.
type Scenario struct {
	Index     int        // position in grid order
	Gate      string     // registry name, or "circuit:<name>" for circuit rows
	VDDScale  float64    // applied supply scale
	LoadScale float64    // applied output-load scale
	Stimulus  Stimulus   // stimulus-axis point
	Params    nor.Params // fully scaled bench parameters
	Config    gen.Config // derived generator configuration (Inputs = arity)

	// Circuit is the swept netlist for circuit rows, nil for gate rows.
	Circuit *netlist.Netlist
}

// Name renders a compact scenario label for progress and reports.
func (s Scenario) Name() string {
	return fmt.Sprintf("%s vdd=%.2f load=%.2f %s", s.Gate, s.VDDScale, s.LoadScale, s.Stimulus.Name())
}

// SeedList resolves the spec's effective seeds: the explicit Seeds
// list, or SeedCount consecutive seeds from BaseSeed (defaults: one
// seed from base 1).
func (s Spec) SeedList() []int64 {
	if len(s.Seeds) > 0 {
		return append([]int64(nil), s.Seeds...)
	}
	count := s.SeedCount
	if count <= 0 {
		count = 1
	}
	base := s.BaseSeed
	if base == 0 {
		base = 1
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// expDMin resolves the exp channel's pure delay.
func (s Spec) expDMin() float64 {
	if s.ExpDMin > 0 {
		return s.ExpDMin
	}
	return 20 * waveform.Pico
}

// baseParams resolves the base bench parameters.
func (s Spec) baseParams() nor.Params {
	if s.Bench != nil {
		return *s.Bench
	}
	return nor.DefaultParams()
}

// scaleParams applies one operating point's scale factors to the base
// bench parameters: the supply (VDD and threshold together, keeping the
// discretization point at the same relative level) and the output load.
func scaleParams(base nor.Params, vddScale, loadScale float64) nor.Params {
	p := base
	p.Supply.VDD *= vddScale
	p.Supply.Vth *= vddScale
	p.CO *= loadScale
	return p
}

// Expand validates the spec and expands it into scenarios in grid order
// (gate-major, then VDD scale, load scale and stimulus; circuit rows
// follow the gate rows in the same axis order).
func Expand(spec Spec) ([]Scenario, error) {
	gates := spec.Gates
	if len(gates) == 0 && len(spec.Circuits) == 0 {
		gates = []string{gate.Default().Name()}
	}
	seenCirc := map[string]bool{}
	for i := range spec.Circuits {
		nl := &spec.Circuits[i]
		if nl.Name == "" {
			return nil, fmt.Errorf("sweep: circuit %d needs a name", i)
		}
		if seenCirc[nl.Name] {
			return nil, fmt.Errorf("sweep: circuit %q listed twice", nl.Name)
		}
		seenCirc[nl.Name] = true
		if err := nl.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	arities := make(map[string]int, len(gates))
	seen := map[string]bool{}
	for _, name := range gates {
		if seen[name] {
			return nil, fmt.Errorf("sweep: gate %q listed twice", name)
		}
		seen[name] = true
		g, err := gate.Find(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		arities[name] = g.Arity()
	}
	vdds := spec.VDDScale
	if len(vdds) == 0 {
		vdds = []float64{1}
	}
	loads := spec.LoadScale
	if len(loads) == 0 {
		loads = []float64{1}
	}
	// Duplicate axis values would expand into scenarios with identical
	// golden-cache keys; their singleflighted lookups would then be
	// attributed to whichever scenario ran first, making the per-scenario
	// hit/miss columns depend on scheduling — so duplicates are rejected
	// on every axis, not just gates.
	seenVDD := map[float64]bool{}
	for _, v := range vdds {
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sweep: invalid VDD scale %g", v)
		}
		if seenVDD[v] {
			return nil, fmt.Errorf("sweep: VDD scale %g listed twice", v)
		}
		seenVDD[v] = true
	}
	seenLoad := map[float64]bool{}
	for _, l := range loads {
		if !(l > 0) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("sweep: invalid load scale %g", l)
		}
		if seenLoad[l] {
			return nil, fmt.Errorf("sweep: load scale %g listed twice", l)
		}
		seenLoad[l] = true
	}
	if len(spec.Stimuli) == 0 {
		return nil, fmt.Errorf("sweep: no stimuli supplied")
	}
	seenStim := map[Stimulus]bool{}
	for i, st := range spec.Stimuli {
		// Every gate and every valid netlist has at least one input, so
		// the stimulus is checked once here, before the scenario list
		// is allocated, on its one-input configuration.
		if err := st.Config(1).Validate(); err != nil {
			return nil, fmt.Errorf("sweep: stimulus %d: %w", i, err)
		}
		if seenStim[st] {
			return nil, fmt.Errorf("sweep: stimulus %d (%s, %d transitions) listed twice", i, st.Name(), st.Transitions)
		}
		seenStim[st] = true
	}
	if spec.SeedCount > MaxSeedCount {
		return nil, fmt.Errorf("sweep: seed_count %d exceeds %d", spec.SeedCount, MaxSeedCount)
	}
	if len(spec.Seeds) > MaxSeedCount {
		return nil, fmt.Errorf("sweep: %d seeds exceed %d", len(spec.Seeds), MaxSeedCount)
	}
	seenSeed := map[int64]bool{}
	for _, s := range spec.SeedList() {
		if seenSeed[s] {
			return nil, fmt.Errorf("sweep: seed %d listed twice", s)
		}
		seenSeed[s] = true
	}
	n := uint64(1)
	for _, k := range []int{len(gates) + len(spec.Circuits), len(vdds), len(loads), len(spec.Stimuli)} {
		hi, lo := bits.Mul64(n, uint64(k))
		if hi != 0 {
			return nil, fmt.Errorf("sweep: grid expands to more than 2^64 scenarios, exceeds %d", MaxScenarios)
		}
		n = lo
	}
	if n > MaxScenarios {
		return nil, fmt.Errorf("sweep: grid expands to %d scenarios, exceeds %d", n, MaxScenarios)
	}
	base := spec.baseParams()
	out := make([]Scenario, 0, n)
	add := func(label string, inputs int, circuit *netlist.Netlist) {
		for _, vdd := range vdds {
			for _, load := range loads {
				for _, st := range spec.Stimuli {
					cfg := st.Config(inputs)
					st.Start = cfg.Start
					out = append(out, Scenario{
						Index:     len(out),
						Gate:      label,
						VDDScale:  vdd,
						LoadScale: load,
						Stimulus:  st,
						Params:    scaleParams(base, vdd, load),
						Circuit:   circuit,
						Config:    cfg,
					})
				}
			}
		}
	}
	for _, name := range gates {
		add(name, arities[name], nil)
	}
	for i := range spec.Circuits {
		nl := &spec.Circuits[i]
		add("circuit:"+nl.Name, len(nl.Inputs), nl)
	}
	return out, nil
}

// Phase names reported through Progress.
const (
	PhasePrepare = "prepare" // operating-point preparation (bench, measurement, fits)
	PhaseEval    = "eval"    // (scenario, seed) evaluation units
)

// Progress describes one completed step of a running sweep.
type Progress struct {
	Phase     string // PhasePrepare or PhaseEval
	Scenario  int    // scenario index (eval phase; -1 during prepare)
	Seed      int64  // seed of the completed unit (eval phase)
	Completed int    // steps of this phase finished so far
	Total     int    // total steps of this phase
	Err       error  // the step's error, if any
}

// Options configures a sweep run.
type Options struct {
	// Workers bounds the single worker pool shared by every scenario
	// (both the prepare and the evaluation phase). Zero or negative
	// selects runtime.GOMAXPROCS(0).
	Workers int

	// Cache, when non-nil, memoizes golden traces across the whole grid
	// (and across RunSweep calls). When nil, RunSweep creates a private
	// cache so hit rates are still reported.
	Cache *eval.GoldenCache

	// Params, when non-nil, memoizes prepared operating points (bench
	// construction, characteristic measurement, model fits) across
	// RunSweep calls — a sweep revisiting an operating point a previous
	// sweep (or gate/circuit evaluation through the same session)
	// already measured skips the whole preparation phase for it. When
	// nil, RunSweep prepares privately; within one call each unique
	// operating point is prepared only once either way.
	Params *eval.ParamCache

	// Progress, when non-nil, is invoked after each completed step.
	// Calls are serialized; steps may complete in any order.
	Progress func(Progress)
}

// opKey identifies one operating point: everything that determines the
// bench and model preparation, but not the stimulus.
type opKey struct {
	gate      string
	vddScale  float64
	loadScale float64
}

// opPoint carries one prepared operating point.
type opPoint struct {
	key    opKey
	params nor.Params
	models eval.Models
	golden *eval.BenchSource
}

// adopt copies a prepared (possibly cache-shared) operating point into
// the sweep-local slot.
func (pt *opPoint) adopt(op *eval.OperatingPoint) {
	pt.models = op.Models
	pt.golden = op.Golden
}

// circuitKey identifies one circuit operating point.
type circuitKey struct {
	circuit   string
	vddScale  float64
	loadScale float64
}

// circuitPoint carries one prepared circuit operating point: the
// pooled composed bench and the per-gate model set assembled from the
// already-prepared single-gate operating points.
type circuitPoint struct {
	params nor.Params
	models netlist.ModelSet
	golden *eval.CircuitBenchSource
}

// memberGates lists the distinct resolved gate names a netlist uses,
// in instance order.
func memberGates(nl *netlist.Netlist) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, inst := range nl.Instances {
		g, err := gate.Find(inst.Gate)
		if err != nil {
			return nil, err
		}
		if !seen[g.Name()] {
			seen[g.Name()] = true
			out = append(out, g.Name())
		}
	}
	return out, nil
}

// circuitToSeedResult folds a per-net circuit unit result into the flat
// per-model shape the sweep report aggregates: areas and golden events
// summed over the recorded nets, in net and model order (deterministic
// floating-point sums).
func circuitToSeedResult(cr eval.CircuitSeedResult) eval.SeedResult {
	out := eval.SeedResult{Config: cr.Config, Seed: cr.Seed, Area: map[string]float64{}}
	for _, net := range cr.Nets {
		out.GoldenEv += cr.GoldenEv[net]
		for _, model := range eval.ModelNames {
			out.Area[model] += cr.Area[net][model]
		}
	}
	return out
}

// RunSweep expands the spec and evaluates every scenario. All scenarios
// share one bounded worker pool and one golden-trace cache; per-scenario
// results are merged in seed order and reported in grid order, so the
// report is independent of the worker count. On the first failing step
// the pool stops picking up new work and the error of the earliest
// failed step (grid-major, seed-minor) is returned.
func RunSweep(spec Spec, opt *Options) (*Report, error) {
	return RunSweepContext(context.Background(), spec, opt)
}

// RunSweepContext is RunSweep with cancellation: once ctx is done no
// new preparation or evaluation units are claimed, in-flight units stop
// at their next stage boundary, and ctx.Err() is returned.
func RunSweepContext(ctx context.Context, spec Spec, opt *Options) (*Report, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Cache == nil {
		o.Cache = eval.NewGoldenCache()
	}
	if o.Params == nil {
		o.Params = eval.NewParamCache()
	}
	scenarios, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	seeds := spec.SeedList()
	start := time.Now()

	points, err := preparePoints(ctx, scenarios, spec.expDMin(), o)
	if err != nil {
		return nil, err
	}
	cpoints, err := prepareCircuitPoints(scenarios, points)
	if err != nil {
		return nil, err
	}

	// One flat unit list over the whole grid: scenario-major (grid
	// order), seed-minor — a gate job's schedule lifted over scenarios,
	// so every scenario shares the same worker budget.
	total := len(scenarios) * len(seeds)
	parts := make([]eval.SeedResult, total)
	scenarioCounts := make([]eval.LookupCounts, len(scenarios))
	scenarioNanos := make([]atomic.Int64, len(scenarios))
	sources := make([]any, len(scenarios)) // eval.GoldenSource or eval.CircuitGoldenSource
	for i, sc := range scenarios {
		if sc.Circuit != nil {
			cp := cpoints[circuitKey{sc.Circuit.Name, sc.VDDScale, sc.LoadScale}]
			sources[i] = eval.CachedCircuitSource{Key: sc.Circuit.ContentKey(), Bench: cp.params,
				Cache: o.Cache, Src: cp.golden, Counts: &scenarioCounts[i]}
			continue
		}
		pt := points[opKey{sc.Gate, sc.VDDScale, sc.LoadScale}]
		sources[i] = eval.CachedSource{Gate: sc.Gate, Bench: pt.params,
			Cache: o.Cache, Src: pt.golden, Counts: &scenarioCounts[i]}
	}

	var done func(i, completed int, err error)
	if o.Progress != nil {
		done = func(i, completed int, err error) {
			o.Progress(Progress{
				Phase: PhaseEval, Scenario: i / len(seeds), Seed: seeds[i%len(seeds)],
				Completed: completed, Total: total, Err: err,
			})
		}
	}
	// Each scenario is one source block of len(seeds) units, so the
	// seed-minor schedule keeps a warm bench leased per scenario.
	err = eval.RunUnits(ctx, eval.Units[any]{
		N: total, Workers: o.Workers, PerSource: len(seeds),
		Source: func(si int) any { return sources[si] },
		Run: func(ctx context.Context, src any, i int) (err error) {
			si, seed := i/len(seeds), seeds[i%len(seeds)]
			sc := scenarios[si]
			unitStart := time.Now()
			if sc.Circuit != nil {
				cp := cpoints[circuitKey{sc.Circuit.Name, sc.VDDScale, sc.LoadScale}]
				var cres eval.CircuitSeedResult
				cres, err = eval.EvaluateCircuitSeedContext(ctx, src.(eval.CircuitGoldenSource), sc.Circuit, cp.models, sc.Config, seed)
				parts[i] = circuitToSeedResult(cres)
			} else {
				parts[i], err = eval.EvaluateSeedContext(ctx, src.(eval.GoldenSource), points[opKey{sc.Gate, sc.VDDScale, sc.LoadScale}].models, sc.Config, seed)
			}
			scenarioNanos[si].Add(time.Since(unitStart).Nanoseconds())
			if err != nil {
				return fmt.Errorf("sweep: scenario %d (%s): %w", si, sc.Name(), err)
			}
			return nil
		},
		Done: done,
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Seeds:      seeds,
		ModelNames: append([]string(nil), eval.ModelNames...),
		Scenarios:  make([]ScenarioResult, len(scenarios)),
		TotalUnits: total,
	}
	for si, sc := range scenarios {
		merged := eval.MergeSeedResults(sc.Config, parts[si*len(seeds):(si+1)*len(seeds)])
		rep.Scenarios[si] = buildScenarioResult(sc, merged, parts[si*len(seeds):(si+1)*len(seeds)],
			&scenarioCounts[si], scenarioNanos[si].Load())
	}
	rep.Cache = o.Cache.Stats()
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// preparePoints resolves each unique operating point (gate, VDD scale,
// load scale) once — bench construction, characteristic measurement and
// model fitting, served from the options' parametrization cache when an
// earlier run already prepared the point — on the shared worker budget.
// Circuit scenarios contribute the operating points of their member
// gates, so a circuit sharing a gate with the gate axis (or with
// another circuit) measures and fits that gate only once.
func preparePoints(ctx context.Context, scenarios []Scenario, expDMin float64, o Options) (map[opKey]*opPoint, error) {
	points := map[opKey]*opPoint{}
	var order []opKey
	add := func(gname string, sc Scenario) {
		key := opKey{gname, sc.VDDScale, sc.LoadScale}
		if _, ok := points[key]; !ok {
			points[key] = &opPoint{key: key, params: sc.Params}
			order = append(order, key)
		}
	}
	for _, sc := range scenarios {
		if sc.Circuit != nil {
			members, err := memberGates(sc.Circuit)
			if err != nil {
				return nil, fmt.Errorf("sweep: circuit %q: %w", sc.Circuit.Name, err)
			}
			for _, gname := range members {
				add(gname, sc)
			}
			continue
		}
		add(sc.Gate, sc)
	}
	errs := make([]error, len(order))
	var onDone func(i, completed int, err error)
	if o.Progress != nil {
		onDone = func(i, completed int, err error) {
			o.Progress(Progress{
				Phase: PhasePrepare, Scenario: -1,
				Completed: completed, Total: len(order), Err: err,
			})
		}
	}
	ctxErr := pool.RunContext(ctx, len(order), o.Workers, func(i int) error {
		errs[i] = preparePoint(ctx, points[order[i]], expDMin, o.Params)
		return errs[i]
	}, onDone)
	for i, err := range errs {
		// Only collapse context-flavoured errors into this run's own
		// cancellation; a live run must surface them as real failures
		// (an unprepared point would otherwise flow into evaluation).
		if err != nil && !(ctxErr != nil && eval.IsContextErr(err)) {
			k := order[i]
			return nil, fmt.Errorf("sweep: operating point %s vdd=%.2f load=%.2f: %w", k.gate, k.vddScale, k.loadScale, err)
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return points, nil
}

// preparePoint resolves one operating point through the parametrization
// cache: the measurement and fits run at most once per (gate, scaled
// bench parameters, expDMin) — concurrent preparations of the same
// point, and later sweeps through the same cache, share the result.
func preparePoint(ctx context.Context, pt *opPoint, expDMin float64, cache *eval.ParamCache) error {
	g, err := gate.Find(pt.key.gate)
	if err != nil {
		return err
	}
	op, err := cache.OperatingPoint(ctx, g, pt.params, expDMin)
	if err != nil {
		return err
	}
	pt.adopt(op)
	return nil
}

// prepareCircuitPoints flattens each unique circuit operating point
// (circuit, VDD scale, load scale) into a pooled composed bench and
// assembles its per-gate model set from the prepared single-gate
// points. Flattening is pure netlist work (no analog runs), so it
// stays serial.
func prepareCircuitPoints(scenarios []Scenario, points map[opKey]*opPoint) (map[circuitKey]*circuitPoint, error) {
	cpoints := map[circuitKey]*circuitPoint{}
	for _, sc := range scenarios {
		if sc.Circuit == nil {
			continue
		}
		key := circuitKey{sc.Circuit.Name, sc.VDDScale, sc.LoadScale}
		if _, ok := cpoints[key]; ok {
			continue
		}
		members, err := memberGates(sc.Circuit)
		if err != nil {
			return nil, fmt.Errorf("sweep: circuit %q: %w", sc.Circuit.Name, err)
		}
		models := netlist.ModelSet{}
		for _, gname := range members {
			models[gname] = points[opKey{gname, sc.VDDScale, sc.LoadScale}].models
		}
		bench, err := netlist.NewBench(sc.Circuit, sc.Params)
		if err != nil {
			return nil, fmt.Errorf("sweep: circuit %q vdd=%.2f load=%.2f: %w",
				sc.Circuit.Name, sc.VDDScale, sc.LoadScale, err)
		}
		cpoints[key] = &circuitPoint{
			params: sc.Params,
			models: models,
			golden: eval.NewCircuitBenchSource(bench),
		}
	}
	return cpoints, nil
}

// buildScenarioResult folds one scenario's merged and per-seed results
// into the report row.
func buildScenarioResult(sc Scenario, merged eval.RunResult, parts []eval.SeedResult, counts *eval.LookupCounts, nanos int64) ScenarioResult {
	hits, misses := counts.Hits.Load(), counts.Misses.Load()
	res := ScenarioResult{
		Index:        sc.Index,
		Gate:         sc.Gate,
		VDDScale:     sc.VDDScale,
		LoadScale:    sc.LoadScale,
		Mode:         sc.Stimulus.Mode.String(),
		MuPs:         sc.Stimulus.Mu / waveform.Pico,
		SigmaPs:      sc.Stimulus.Sigma / waveform.Pico,
		Transitions:  sc.Stimulus.Transitions,
		Seeds:        len(parts),
		Normalized:   map[string]eval.Ratio{},
		GoldenEvents: merged.GoldenEv,
		CacheHits:    hits,
		CacheMisses:  misses,
		WallSeconds:  float64(nanos) / 1e9,
	}
	//hybrid:nondet-ok map-to-map copy with distinct keys; the report JSON/CSV encoders emit models in sorted/declared order
	for name, v := range merged.Normalized {
		res.Normalized[name] = eval.Ratio(v)
	}
	if lookups := hits + misses; lookups > 0 {
		res.HitRate = float64(hits) / float64(lookups)
	}
	// Worst-case seed: the repetition with the largest hybrid-model
	// deviation area (absolute, so a zero inertial baseline cannot make
	// the ranking undefined). Ties keep the earliest seed.
	for i, p := range parts {
		area := p.Area[eval.ModelHM]
		if i == 0 || area > res.WorstSeedArea {
			res.WorstSeed = p.Seed
			res.WorstSeedArea = area
		}
	}
	return res
}
