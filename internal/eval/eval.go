// Package eval implements the accuracy-evaluation pipeline of paper §VI
// (Fig. 7): random input traces are run through the analog golden
// reference (a transistor-level bench) and through each digital delay
// model; the models are scored by the deviation area between their
// output trace and the digitized golden trace, normalized against the
// inertial-delay baseline.
//
// The pipeline is gate-generic: every stage is keyed by a gate.Gate from
// the registry (bench construction, characteristic measurement, model
// parametrization, golden runs), so NOR2 — the paper's gate and the
// default — NAND2 and NOR3 all flow through the same machinery. It is
// decomposed into independent (config, seed) units (EvaluateSeed)
// scheduled either serially (Evaluate, EvaluateBench) or on the one
// unit engine (RunUnits, with the RunGate and RunCircuit job shapes)
// with deterministic merging: results are bit-identical regardless of
// the worker count. The golden
// reference is abstracted behind GoldenSource, so the analog bench can
// be pooled per worker (BenchSource) and memoized by content key
// (GoldenCache, CachedSource — the gate name is part of the key).
package eval

import (
	"fmt"

	"hybriddelay/internal/dtsim"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// Model names used in result maps (Fig. 7 legend); the canonical
// definitions live next to gate.Models in internal/gate.
const (
	ModelInertial = gate.ModelInertial
	ModelExp      = gate.ModelExp
	ModelHM       = gate.ModelHM       // hybrid model with pure delay
	ModelHMNoDMin = gate.ModelHMNoDMin // hybrid model without pure delay
)

// ModelNames lists the evaluated models in presentation order.
var ModelNames = gate.ModelNames

// Models bundles the parametrized delay models under comparison for one
// gate; see gate.Models.
type Models = gate.Models

// BuildModels parametrizes all delay models of the default NOR2 gate
// from its measured characteristic Charlie delays, mirroring §VI:
//
//   - inertial delay: per-arc SIS delays (pin-aware, NLDM-style);
//   - exp-channel: a single channel at the gate output — it cannot see
//     which input switched, so each direction uses the mean of the two
//     SIS delays (exactly the deficiency the paper describes for broad
//     pulses) — with the empirical pure delay expDMin (paper: 20 ps);
//   - hybrid model: least-squares fit with automatic pure delay;
//   - hybrid model without pure delay: least-squares fit forced to
//     DMin = 0 (the ablation of Figs. 7 and 8).
//
// Other gates build the same model set through their registry entry:
// gate.Lookup(name) and Gate.BuildModels on a Bench measurement.
func BuildModels(target hybrid.Characteristic, supply waveform.Supply, expDMin float64) (Models, error) {
	return gate.NOR2.BuildModels(gate.Measurement{
		Pair: target,
		Arcs: gate.NOR2Arcs(target),
	}, supply, expDMin)
}

// MeasureCharacteristic runs the golden NOR bench's characteristic-delay
// measurements and converts them into the hybrid package's target type.
func MeasureCharacteristic(bench *nor.Bench) (hybrid.Characteristic, error) {
	meas, err := (&gate.NOR2Bench{B: bench}).Measure()
	if err != nil {
		return hybrid.Characteristic{}, err
	}
	return meas.Pair, nil
}

// GoldenNOR runs the analog NOR bench over the given input traces and
// returns the digitized output trace. Both inputs must start low (the
// bench starts settled in state (0,0)).
func GoldenNOR(bench *nor.Bench, a, b trace.Trace, until float64) (trace.Trace, error) {
	return (&gate.NOR2Bench{B: bench}).Golden([]trace.Trace{a, b}, until)
}

// RunModels produces each model's output trace for the given inputs.
func RunModels(m Models, inputs []trace.Trace, until float64) (map[string]trace.Trace, error) {
	out := make(map[string]trace.Trace, 4)
	ideal := trace.Combine(m.Gate.Logic, inputs...)
	out[ModelInertial] = m.Inertial.Apply(m.Gate.Logic, inputs...)
	out[ModelExp] = dtsim.ApplyDelay(ideal, m.Exp)
	hm, err := m.HM.Apply(inputs, until)
	if err != nil {
		return nil, fmt.Errorf("eval: hybrid channel: %w", err)
	}
	out[ModelHM] = hm
	hm0, err := m.HMNoDMin.Apply(inputs, until)
	if err != nil {
		return nil, fmt.Errorf("eval: hybrid channel (no dmin): %w", err)
	}
	out[ModelHMNoDMin] = hm0
	return out, nil
}

// RunResult aggregates deviation areas over the repetitions of one
// waveform configuration.
//
// Normalized holds area / inertial area (the Fig. 7 bars). When the
// inertial baseline accumulated zero deviation area — every model output
// is then either perfect or incomparable — the ratio is undefined and
// every Normalized entry is NaN (check with math.IsNaN) rather than a
// misleading ±Inf-scale value.
type RunResult struct {
	Config     gen.Config
	Seeds      []int64
	Area       map[string]float64 // summed absolute deviation area [s]
	Normalized map[string]float64 // area / inertial area (Fig. 7 bars); NaN if the baseline is zero
	GoldenEv   int                // golden output transitions observed
}

// EvaluateBench runs the full pipeline for one configuration over the
// given seeds (repetitions) on any gate bench and aggregates the
// deviation areas. It is the serial composition of the per-seed units;
// RunGate fans the same units across a worker pool with bit-identical
// results.
func EvaluateBench(bench gate.Bench, m Models, cfg gen.Config, seeds []int64) (RunResult, error) {
	if len(seeds) == 0 {
		return RunResult{
			Config:     cfg,
			Area:       map[string]float64{},
			Normalized: map[string]float64{},
		}, fmt.Errorf("eval: no seeds supplied")
	}
	golden := NewGateBenchSource(bench)
	parts := make([]SeedResult, 0, len(seeds))
	for _, seed := range seeds {
		part, err := EvaluateSeed(golden, m, cfg, seed)
		if err != nil {
			return MergeSeedResults(cfg, parts), err
		}
		parts = append(parts, part)
	}
	return MergeSeedResults(cfg, parts), nil
}

// Evaluate runs the pipeline for one configuration on the default NOR2
// golden bench; see EvaluateBench for the gate-generic form.
func Evaluate(bench *nor.Bench, m Models, cfg gen.Config, seeds []int64) (RunResult, error) {
	return EvaluateBench(&gate.NOR2Bench{B: bench}, m, cfg, seeds)
}
