package hybriddelay

// Serial-vs-parallel wall time of the Fig. 7 accuracy pipeline (the
// repo's hottest path). BenchmarkEvaluateParallel reports speedup_x, the
// ratio of serial Evaluate wall time to a 4-worker Session gate job's
// per-iteration time on the same configs and seeds, so the speedup
// trajectory is tracked across PRs; the Cached variant measures the
// steady state of a warm golden-trace cache (golden transients skipped
// entirely). speedup_x scales with the core count — on a single-core
// machine it sits near 1.

import (
	"context"
	"sync"
	"testing"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/nor"
)

const parallelBenchWorkers = 4

// fig7ParallelSetup returns the shared golden bench and the paper
// configurations at the same reduced size BenchmarkFig7Accuracy uses.
func fig7ParallelSetup(b *testing.B) (*nor.Bench, eval.Models, []gen.Config, []int64) {
	bench, _, models := setupGolden(b)
	configs := gen.PaperConfigs()
	for i := range configs {
		configs[i].Transitions /= 4 // keep a single iteration in the ~1 s range
	}
	return bench, models, configs, []int64{1, 2, 3, 4}
}

// serialBaseline measures one serial pass over all configs once per
// process, for the speedup metrics.
var serialBaselineState struct {
	once sync.Once
	secs float64
	err  error
}

func serialBaseline(b *testing.B) float64 {
	bench, models, configs, seeds := fig7ParallelSetup(b)
	serialBaselineState.once.Do(func() {
		start := time.Now()
		for _, cfg := range configs {
			if _, err := eval.Evaluate(bench, models, cfg, seeds); err != nil {
				serialBaselineState.err = err
				return
			}
		}
		serialBaselineState.secs = time.Since(start).Seconds()
	})
	if serialBaselineState.err != nil {
		b.Fatal(serialBaselineState.err)
	}
	return serialBaselineState.secs
}

// BenchmarkEvaluateSerial is the reference: the serial pipeline over the
// Fig. 7 configs.
func BenchmarkEvaluateSerial(b *testing.B) {
	bench, models, configs, seeds := fig7ParallelSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			if _, err := eval.Evaluate(bench, models, cfg, seeds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// evaluateGateJob runs one gate job on s, failing the benchmark on error.
func evaluateGateJob(b *testing.B, s *Session, job GateJob) {
	b.Helper()
	if _, err := s.Evaluate(context.Background(), job); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEvaluateParallel runs the same work as a 4-worker gate job
// over the prepared bench and models (uncached: every golden transient
// is re-simulated, so speedup comes purely from the worker pool).
func BenchmarkEvaluateParallel(b *testing.B) {
	bench, models, configs, seeds := fig7ParallelSetup(b)
	serial := serialBaseline(b)
	s := NewSession(SessionOptions{Workers: parallelBenchWorkers})
	job := GateJob{Bench: &gate.NOR2Bench{B: bench}, Models: &models, Configs: configs, Seeds: seeds, NoCache: true}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		evaluateGateJob(b, s, job)
	}
	perIter := time.Since(start).Seconds() / float64(b.N)
	b.StopTimer()
	b.ReportMetric(serial/perIter, "speedup_x")
	b.ReportMetric(parallelBenchWorkers, "workers")
}

// gateBenchSetup builds the generic-pipeline inputs for one registered
// gate: bench, measured models and the reduced paper configs at the
// gate's arity.
func gateBenchSetup(b *testing.B, name string) (gate.Bench, eval.Models, []gen.Config, []int64) {
	b.Helper()
	g, ok := gate.Lookup(name)
	if !ok {
		b.Fatalf("gate %q not registered", name)
	}
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	bench, err := g.NewBench(p)
	if err != nil {
		b.Fatal(err)
	}
	meas, err := bench.Measure()
	if err != nil {
		b.Fatal(err)
	}
	models, err := g.BuildModels(meas, p.Supply, 20e-12)
	if err != nil {
		b.Fatal(err)
	}
	configs := gen.PaperConfigs()
	for i := range configs {
		configs[i].Inputs = g.Arity()
		configs[i].Transitions /= 4
	}
	return bench, models, configs, []int64{1, 2, 3, 4}
}

// BenchmarkEvalParallel tracks the generic registry-driven pipeline with
// a per-gate dimension, so the perf trajectory of the hot path is
// recorded for every gate the evaluation supports, not just the default.
func BenchmarkEvalParallel(b *testing.B) {
	for _, name := range []string{"nor2", "nand2"} {
		b.Run(name, func(b *testing.B) {
			bench, models, configs, seeds := gateBenchSetup(b, name)
			s := NewSession(SessionOptions{Workers: parallelBenchWorkers})
			job := GateJob{Bench: bench, Models: &models, Configs: configs, Seeds: seeds, NoCache: true}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				evaluateGateJob(b, s, job)
			}
			perIter := time.Since(start).Seconds() / float64(b.N)
			b.StopTimer()
			b.ReportMetric(float64(len(configs)*len(seeds))/perIter, "units_per_s")
			b.ReportMetric(parallelBenchWorkers, "workers")
		})
	}
}

// BenchmarkEvaluateParallelCached measures the warm-cache steady state:
// the golden traces are memoized, so each iteration only reruns the
// digital models and the merge.
func BenchmarkEvaluateParallelCached(b *testing.B) {
	bench, models, configs, seeds := fig7ParallelSetup(b)
	serial := serialBaseline(b)
	cache := eval.NewGoldenCache()
	s := NewSession(SessionOptions{Workers: parallelBenchWorkers})
	job := GateJob{Bench: &gate.NOR2Bench{B: bench}, Models: &models, Configs: configs, Seeds: seeds, Cache: cache}
	evaluateGateJob(b, s, job) // warm the cache
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		evaluateGateJob(b, s, job)
	}
	perIter := time.Since(start).Seconds() / float64(b.N)
	b.StopTimer()
	b.ReportMetric(serial/perIter, "speedup_x")
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
}
