package hybriddelay

// Circuit-level evaluation benchmarks: the composed-golden pipeline
// over the NOR + inverter-chain netlist, cold (every golden transient
// simulated) and warm (golden trace sets served from the shared
// cache). These feed the CI benchmark smoke job's BENCH_circuit.json
// artifact, so the circuit pipeline's perf trajectory is tracked
// across PRs.

import (
	"context"
	"sync"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/idm"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
)

// circuitBenchState prepares the shared chain netlist and a fixed
// (measurement-free) model set once per process: the benchmarks track
// evaluation cost, not parametrization cost.
var circuitBenchState struct {
	once sync.Once
	nl   *netlist.Netlist
	ms   netlist.ModelSet
	p    nor.Params
	err  error
}

func circuitBenchSetup(b *testing.B) (*netlist.Netlist, netlist.ModelSet, nor.Params) {
	s := &circuitBenchState
	s.once.Do(func() {
		s.nl, s.err = netlist.InverterChain("bench-chain", 3)
		if s.err != nil {
			return
		}
		s.p = nor.DefaultParams()
		s.p.MaxStep = 8e-12
		hm := hybrid.TableI()
		hm0 := hm
		hm0.DMin = 0
		var arcs inertial.NORArcs
		if arcs, s.err = inertial.NORArcsFromSIS(40e-12, 38e-12, 53e-12, 56e-12); s.err != nil {
			return
		}
		var exp idm.Exp
		if exp, s.err = idm.ExpFromSIS(54.5e-12, 39e-12, 20e-12); s.err != nil {
			return
		}
		s.ms = netlist.ModelSet{"nor2": {
			Gate:     gate.NOR2,
			Inertial: arcs.Arcs(),
			Exp:      exp,
			HM:       gate.NOR2Model{P: hm},
			HMNoDMin: gate.NOR2Model{P: hm0},
			Supply:   hm.Supply,
		}}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.nl, s.ms, s.p
}

func circuitBenchConfig() gen.Config {
	cfg := gen.PaperConfigs()[0]
	cfg.Transitions = 30
	return cfg
}

// BenchmarkEvaluateCircuitChain measures the cold circuit pipeline:
// every iteration simulates the composed golden transients.
func BenchmarkEvaluateCircuitChain(b *testing.B) {
	nl, ms, p := circuitBenchSetup(b)
	cfg := circuitBenchConfig()
	seeds := []int64{1, 2}
	s := NewSession(SessionOptions{Workers: 4})
	job := CircuitJob{Netlist: nl, Params: &p, Models: ms, Config: cfg, Seeds: seeds, NoCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.Evaluate(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		res := out.Circuit
		ev := 0
		for _, net := range res.Nets {
			ev += res.GoldenEv[net]
		}
		b.ReportMetric(float64(ev), "golden_ev")
	}
}

// BenchmarkEvaluateCircuitCached measures the warm steady state: the
// golden trace sets come from the shared cache, so the iteration cost
// is the model side of the circuit pipeline.
func BenchmarkEvaluateCircuitCached(b *testing.B) {
	nl, ms, p := circuitBenchSetup(b)
	cfg := circuitBenchConfig()
	seeds := []int64{1, 2}
	cache := eval.NewGoldenCache()
	s := NewSession(SessionOptions{Workers: 4})
	job := CircuitJob{Netlist: nl, Params: &p, Models: ms, Config: cfg, Seeds: seeds, Cache: cache}
	if _, err := s.Evaluate(context.Background(), job); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
}

// BenchmarkComposedGoldenC17 measures one composed transient of the
// reconvergent c17 circuit — the raw analog cost of circuit-level
// golden generation.
func BenchmarkComposedGoldenC17(b *testing.B) {
	_, _, p := circuitBenchSetup(b)
	nl := netlist.C17("c17")
	bench, err := netlist.NewBench(nl, p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := circuitBenchConfig()
	cfg.Inputs = len(nl.Inputs)
	inputs, err := gen.Traces(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	until := gen.Horizon(inputs, 600e-12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Golden(inputs, until); err != nil {
			b.Fatal(err)
		}
	}
}
