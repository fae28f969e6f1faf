package hybriddelay

// The sparse-solver accuracy gate: `sparse-fast` is documented as
// numerically equivalent, not bit-identical, to the default
// `dense-exact` mode — this test pins down what "equivalent" means for
// the quantity the whole pipeline is about. Every digitized golden
// transition (the delay observable) must agree between the two modes
// to within 1e-12 s, on every registered gate and on the composed c17
// netlist.

import (
	"math"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
)

// solverDelayTol is the accuracy gate: the largest admissible per-event
// delay deviation between the dense and sparse golden traces.
const solverDelayTol = 1e-12 // [s]

// maxEventDeviation requires both digitized traces to carry the same
// transition sequence and returns the largest per-event time deviation.
func maxEventDeviation(t *testing.T, label string, dense, sparse trace.Trace) float64 {
	t.Helper()
	if dense.Initial != sparse.Initial {
		t.Fatalf("%s: initial value %v dense, %v sparse", label, dense.Initial, sparse.Initial)
	}
	if len(dense.Events) != len(sparse.Events) {
		t.Fatalf("%s: %d transitions dense, %d sparse", label, len(dense.Events), len(sparse.Events))
	}
	maxDev := 0.0
	for i := range dense.Events {
		if dense.Events[i].Value != sparse.Events[i].Value {
			t.Fatalf("%s: transition %d flips to %v dense, %v sparse",
				label, i, dense.Events[i].Value, sparse.Events[i].Value)
		}
		if d := math.Abs(dense.Events[i].Time - sparse.Events[i].Time); d > maxDev {
			maxDev = d
		}
	}
	return maxDev
}

// solverGateParams is the shared operating point of the gate tests.
func solverGateParams() nor.Params {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	return p
}

// TestSparseSolverAccuracyGates runs random stimuli through the golden
// bench of every registered gate under both solver modes and asserts
// the per-seed delay deviation stays under the gate.
func TestSparseSolverAccuracyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients; skipped in -short mode")
	}
	seeds := []int64{1, 2}
	for _, name := range gate.Names() {
		g, ok := gate.Lookup(name)
		if !ok {
			t.Fatalf("registered gate %q not found", name)
		}
		t.Run(name, func(t *testing.T) {
			p := solverGateParams()
			denseBench, err := g.NewBench(p)
			if err != nil {
				t.Fatal(err)
			}
			ps := p
			ps.Solver = spice.SparseFast
			sparseBench, err := g.NewBench(ps)
			if err != nil {
				t.Fatal(err)
			}
			cfg := gen.PaperConfigs()[0]
			cfg.Inputs = g.Arity()
			cfg.Transitions = 24
			for _, seed := range seeds {
				inputs, err := gen.Traces(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				until := gen.Horizon(inputs, 600e-12)
				gd, err := denseBench.Golden(inputs, until)
				if err != nil {
					t.Fatalf("seed %d: dense golden: %v", seed, err)
				}
				gs, err := sparseBench.Golden(inputs, until)
				if err != nil {
					t.Fatalf("seed %d: sparse golden: %v", seed, err)
				}
				label := cfg.Name()
				if dev := maxEventDeviation(t, label, gd, gs); dev > solverDelayTol {
					t.Errorf("seed %d: delay deviation %.3g s exceeds %.0e s", seed, dev, solverDelayTol)
				}
			}
		})
	}
}

// netlistAccuracy runs a composed netlist's golden under both solver
// modes and asserts every recorded net's transitions agree to within
// the gate.
func netlistAccuracy(t *testing.T, nl *netlist.Netlist, transitions int, seeds []int64) {
	t.Helper()
	p := solverGateParams()
	denseBench, err := netlist.NewBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	ps := p
	ps.Solver = spice.SparseFast
	sparseBench, err := netlist.NewBench(nl, ps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.PaperConfigs()[0]
	cfg.Inputs = len(nl.Inputs)
	cfg.Transitions = transitions
	for _, seed := range seeds {
		inputs, err := gen.Traces(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		until := gen.Horizon(inputs, 600e-12)
		gd, err := denseBench.Golden(inputs, until)
		if err != nil {
			t.Fatalf("seed %d: dense golden: %v", seed, err)
		}
		gs, err := sparseBench.Golden(inputs, until)
		if err != nil {
			t.Fatalf("seed %d: sparse golden: %v", seed, err)
		}
		for _, net := range nl.Recorded() {
			label := nl.Name + " net " + net
			if dev := maxEventDeviation(t, label, gd[net], gs[net]); dev > solverDelayTol {
				t.Errorf("seed %d: %s: delay deviation %.3g s exceeds %.0e s", seed, label, dev, solverDelayTol)
			}
		}
	}
}

// TestSparseSolverAccuracyC17 is the reconvergent composed-circuit
// accuracy gate.
func TestSparseSolverAccuracyC17(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients; skipped in -short mode")
	}
	netlistAccuracy(t, netlist.C17("c17"), 20, []int64{1, 2})
}

// TestSparseSolverAccuracyAdder runs the accuracy gate on the 2-bit
// ripple-carry adder: a deeper carry-chain topology (18 NAND2 gates)
// whose MNA system carries real fill-in, so a long slot schedule is on
// the path being gated.
func TestSparseSolverAccuracyAdder(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients; skipped in -short mode")
	}
	nl, err := netlist.RippleCarryAdder("rca2", 2)
	if err != nil {
		t.Fatal(err)
	}
	netlistAccuracy(t, nl, 12, []int64{1})
}
