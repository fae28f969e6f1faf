package hybriddelay

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/sweep"
)

// Every workload runs through Session jobs on the one unit engine.
// These property tests pin its contract at the facade: for every
// workload shape a job's output is bit-identical (reflect.DeepEqual on
// results, byte equality on encoded reports) to the serial pipeline
// composition, for every worker count, across several configurations
// and seed lists.

// fastFacadeParams returns coarse-step bench parameters for quick
// analog property runs.
func fastFacadeParams() BenchParams {
	p := DefaultBenchParams()
	p.MaxStep = 8e-12
	return p
}

// facadeModels prepares a NOR2 bench and model set at the fast
// operating point.
func facadeModels(t *testing.T) (*Bench, Models) {
	t.Helper()
	b, err := NewBench(fastFacadeParams())
	if err != nil {
		t.Fatal(err)
	}
	target, err := MeasureCharacteristic(b)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModels(target, b.P.Supply, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	return b, m
}

// propertyConfigs returns the waveform configurations the properties
// quantify over: both stimulus flavours at small sizes.
func propertyConfigs(inputs int) []TraceConfig {
	mk := func(mode gen.Mode, mu, sigma float64, n int) TraceConfig {
		return TraceConfig{Mu: mu, Sigma: sigma, Mode: mode, Inputs: inputs,
			Transitions: n, Start: 200e-12}
	}
	return []TraceConfig{
		mk(gen.Local, 200e-12, 100e-12, 8),
		mk(gen.Global, 500e-12, 250e-12, 10),
	}
}

// TestEvaluateParallelDelegatesBitIdentical: a gate job carrying its
// own bench and models is bit-identical to the serial EvaluateBench on
// 1 to 4 workers.
func TestEvaluateParallelDelegatesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	bench, m := facadeModels(t)
	seeds := []int64{1, 2, 3}
	s := NewSession(SessionOptions{})
	for _, cfg := range propertyConfigs(2) {
		want, err := eval.EvaluateBench(&gate.NOR2Bench{B: bench}, m, cfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			got, err := s.Evaluate(context.Background(), GateJob{
				Bench: &gate.NOR2Bench{B: bench}, Models: &m,
				Configs: []TraceConfig{cfg}, Seeds: seeds, Workers: workers, NoCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Gate[0], want) {
				t.Errorf("%s workers=%d: gate job diverged from the serial pipeline:\n got %+v\nwant %+v",
					cfg.Name(), workers, got.Gate[0], want)
			}
		}
	}
}

// TestEvaluateGateDelegatesBitIdentical: for every gate, a serial gate
// job over a prepared bench and model set reproduces EvaluateBench.
func TestEvaluateGateDelegatesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	p := fastFacadeParams()
	s := NewSession(SessionOptions{})
	for _, name := range []string{"nor2", "nand2"} {
		g, ok := LookupGate(name)
		if !ok {
			t.Fatalf("gate %s not registered", name)
		}
		bench, err := g.NewBench(p)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := bench.Measure()
		if err != nil {
			t.Fatal(err)
		}
		m, err := g.BuildModels(meas, p.Supply, 20e-12)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range propertyConfigs(g.Arity())[:1] {
			want, err := eval.EvaluateBench(bench, m, cfg, []int64{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Evaluate(context.Background(), GateJob{
				Bench: bench, Models: &m,
				Configs: []TraceConfig{cfg}, Seeds: []int64{1, 2}, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Gate[0], want) {
				t.Errorf("%s %s: gate job diverged from the serial pipeline:\n got %+v\nwant %+v",
					name, cfg.Name(), got.Gate[0], want)
			}
		}
	}
}

// TestEvaluateCircuitDelegatesBitIdentical: a circuit job is
// bit-identical to the serial EvaluateCircuitSeed + merge composition
// on 1 to 4 workers.
func TestEvaluateCircuitDelegatesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	nl, err := BuiltinNetlist("nor-invchain")
	if err != nil {
		t.Fatal(err)
	}
	p := fastFacadeParams()
	ms, err := BuildNetlistModels(nl, p, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2, 3}
	bench, err := NewCircuitBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionOptions{})
	for _, cfg := range propertyConfigs(len(nl.Inputs))[:1] {
		var parts []CircuitSeedResult
		for _, seed := range seeds {
			part, err := eval.EvaluateCircuitSeed(eval.NewCircuitBenchSource(bench), nl, ms, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
		}
		want := eval.MergeCircuitSeedResults(nl, cfg, parts)
		for workers := 1; workers <= 4; workers++ {
			got, err := s.Evaluate(context.Background(), CircuitJob{
				Netlist: nl, Params: &p, Models: ms,
				Config: cfg, Seeds: seeds, Workers: workers, NoCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := *got.Circuit
			res.Solver = SolverStats{} // pool-shape dependent; the rows are what must match
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s workers=%d: circuit job diverged from the serial pipeline:\n got %+v\nwant %+v",
					cfg.Name(), workers, res, want)
			}
		}
	}
}

func TestRunSweepDelegatesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	spec := SweepSpec{
		Gates:    []string{"nor2", "nand2"},
		VDDScale: []float64{1, 0.95},
		Stimuli: []SweepStimulus{
			{Mode: StimulusLocal, Mu: 200e-12, Sigma: 100e-12, Transitions: 8},
		},
		Seeds: []int64{1, 2},
		Bench: &p,
	}
	encode := func(rep *SweepReport) (string, string) {
		t.Helper()
		rep.ClearTimings()
		var j, c bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	want, err := sweep.RunSweep(spec, &sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionOptions{})
	// A private golden cache per job keeps the report's cache
	// statistics those of one run.
	run := func() *SweepReport {
		t.Helper()
		res, err := s.Evaluate(context.Background(), SweepJob{Spec: spec, Workers: 4, Cache: NewGoldenCache()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Sweep
	}
	gj, gc := encode(run())
	wj, wc := encode(want)
	if gj != wj {
		t.Errorf("sweep job JSON report diverged from the serial engine run:\n--- session ---\n%s\n--- direct ---\n%s", gj, wj)
	}
	if gc != wc {
		t.Errorf("sweep job CSV report diverged from the serial engine run:\n--- session ---\n%s\n--- direct ---\n%s", gc, wc)
	}
	// Re-running the sweep hits the session's parametrization cache (no
	// re-measurement) and still encodes byte-identically.
	aj, ac := encode(run())
	if aj != gj || ac != gc {
		t.Error("warm sweep job (parametrization served from cache) is not byte-identical to the cold run")
	}
}

func TestFacadeSessionSurface(t *testing.T) {
	s := NewSession(SessionOptions{Workers: 2})
	if s.GoldenCache() == nil || s.ParamCache() == nil {
		t.Fatal("session did not create its caches")
	}
	if st := s.GoldenCache().Stats(); st != (CacheStats{}) {
		t.Errorf("fresh golden cache stats = %+v", st)
	}
	if st := s.ParamCache().Stats(); st != (ParamCacheStats{}) {
		t.Errorf("fresh param cache stats = %+v", st)
	}
	if _, err := s.Evaluate(context.Background(), CircuitJob{}); err == nil {
		t.Error("invalid job accepted through the facade surface")
	}
	// The netlist helper types still round-trip through session jobs.
	var job Job = SweepJob{}
	if _, ok := job.(SweepJob); !ok {
		t.Error("job interface lost the concrete type")
	}
	_ = netlist.ModelSet{} // facade alias target stays importable
}

// TestFacadeGoldenStoreRoundTrip: a Session with a persistent store
// mounted through the facade warm-starts a later Session from disk —
// the second run's result is bit-identical and its golden traces come
// from the store, not fresh transient solves.
func TestFacadeGoldenStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	dir := t.TempDir()
	cfg := propertyConfigs(2)[0]
	p := fastFacadeParams()
	job := GateJob{Gate: "nor2", Params: &p,
		Configs: []TraceConfig{cfg}, Seeds: []int64{1}, Workers: 2}

	st, err := OpenGoldenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewSession(SessionOptions{Workers: 2, Store: st})
	want, err := cold.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenGoldenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := NewSession(SessionOptions{Workers: 2, Store: st2})
	got, err := warm.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Gate, want.Gate) {
		t.Errorf("store-warmed run diverged:\n got %+v\nwant %+v", got.Gate, want.Gate)
	}
	var stats GoldenStoreStats = st2.Stats()
	if stats.Hits == 0 {
		t.Errorf("warm run hit the disk store 0 times (stats %+v)", stats)
	}
	if stats.Misses != 0 || stats.Writes != 0 {
		t.Errorf("warm run was not fully served from disk: %+v", stats)
	}
}

// TestFacadeReexportExercise keeps the thin re-export wrappers covered:
// constructing each aliased engine piece through the facade must stay
// working even though the heavy paths are tested against the internals.
func TestFacadeReexportExercise(t *testing.T) {
	if NewParamCache() == nil {
		t.Fatal("NewParamCache returned nil")
	}
	if len(Gates()) < 3 {
		t.Errorf("Gates() = %v, want the registered registry", Gates())
	}
	if DefaultGate().Name() != "nor2" {
		t.Errorf("DefaultGate = %q", DefaultGate().Name())
	}
	nl, err := BuiltinNetlist("nor-invchain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCircuitBench(nl, fastFacadeParams()); err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator()
	ms := NetlistModels{}
	if _, err := ElaborateNetlist(nl, sim, nil, WireNetlistModel(ms, ModelInertial)); err == nil {
		t.Error("elaboration with an empty model set must fail")
	}
}
