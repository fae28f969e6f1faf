package nor_test

// The bench physics tests drive the stamped topologies through the one
// analog bench of internal/gate (an external test package, so the
// stamps are tested the way every golden run uses them).

import (
	"math"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

// newGateBench builds g's analog bench, failing the test on error.
func newGateBench(t *testing.T, g gate.Gate, p nor.Params) *gate.AnalogBench {
	t.Helper()
	b, err := gate.NewAnalogBench(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fastParams is the calibrated bench with the coarser integrator step.
func fastParams() nor.Params {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	return p
}

func newBench(t *testing.T) *gate.AnalogBench {
	return newGateBench(t, gate.NOR2, nor.DefaultParams())
}

// characteristic measures b's six Charlie delays.
func characteristic(t *testing.T, b *gate.AnalogBench) hybrid.Characteristic {
	t.Helper()
	m, err := b.Measure()
	if err != nil {
		t.Fatal(err)
	}
	return m.Pair
}

func TestNewValidation(t *testing.T) {
	p := nor.DefaultParams()
	p.CN = 0
	if _, err := gate.NewAnalogBench(gate.NOR2, p); err == nil {
		t.Error("zero CN accepted")
	}
	p = nor.DefaultParams()
	p.InputRise = 0
	if _, err := gate.NewAnalogBench(gate.NOR2, p); err == nil {
		t.Error("zero rise time accepted")
	}
	p = nor.DefaultParams()
	p.Supply = waveform.Supply{}
	if _, err := gate.NewAnalogBench(gate.NOR2, p); err == nil {
		t.Error("invalid supply accepted")
	}
}

// TestTruthTable: DC behaviour at all four input states (via settled
// transients).
func TestTruthTable(t *testing.T) {
	b := newBench(t)
	vdd := b.Params().Supply.VDD
	cases := []struct {
		a, b float64
		high bool
	}{
		{0, 0, true},
		{0, vdd, false},
		{vdd, 0, false},
		{vdd, vdd, false},
	}
	for _, c := range cases {
		res, err := b.Simulate([]waveform.Signal{waveform.Constant(c.a), waveform.Constant(c.b)},
			2e-9, vdd/2, vdd/2, nil)
		if err != nil {
			t.Fatalf("(%g, %g): %v", c.a, c.b, err)
		}
		vo := res.Out.At(2e-9)
		if c.high && vo < 0.9*vdd {
			t.Errorf("NOR(%g, %g) settled at %g, want ~VDD", c.a, c.b, vo)
		}
		if !c.high && vo > 0.1*vdd {
			t.Errorf("NOR(%g, %g) settled at %g, want ~0", c.a, c.b, vo)
		}
	}
}

// TestFig2FallingShape pins the qualitative content of Fig. 2b: MIS
// speed-up with minimum at Delta = 0, asymmetric tails with
// fall(+inf) > fall(-inf), and a dip of roughly 30%.
func TestFig2FallingShape(t *testing.T) {
	b := newBench(t)
	c := characteristic(t, b)
	if !(c.FallZero < c.FallMinusInf && c.FallZero < c.FallPlusInf) {
		t.Errorf("no falling speed-up: %+v", c)
	}
	dip := (c.FallZero - c.FallMinusInf) / c.FallMinusInf
	if dip > -0.2 || dip < -0.5 {
		t.Errorf("falling dip = %.1f%%, expected in [-50%%, -20%%] (paper ~-28%%)", 100*dip)
	}
	if c.FallPlusInf <= c.FallMinusInf {
		t.Errorf("tail asymmetry wrong: fall(+inf)=%g <= fall(-inf)=%g (T2 drag missing)",
			c.FallPlusInf, c.FallMinusInf)
	}
	// Absolute scale: tens of picoseconds like the paper's 15nm library.
	if c.FallZero < 10e-12 || c.FallMinusInf > 80e-12 {
		t.Errorf("falling delays outside the calibrated band: %+v", c)
	}
}

// TestFig2RisingShape pins Fig. 2d: slow-down around Delta = 0 and
// rise(-inf) > rise(+inf) (early A transition precharges node N).
func TestFig2RisingShape(t *testing.T) {
	b := newBench(t)
	c := characteristic(t, b)
	if !(c.RiseZero > c.RiseMinusInf && c.RiseZero > c.RisePlusInf) {
		t.Errorf("no rising slow-down: %+v", c)
	}
	if c.RiseMinusInf <= c.RisePlusInf {
		t.Errorf("rising tails ordered wrongly: -inf=%g, +inf=%g", c.RiseMinusInf, c.RisePlusInf)
	}
	bump := (c.RiseZero - c.RiseMinusInf) / c.RiseMinusInf
	if bump < 0.01 || bump > 0.25 {
		t.Errorf("rising bump = %.1f%%, expected a few percent (paper ~+2..+8%%)", 100*bump)
	}
	// Rising delays exceed falling ones (serial pull-up), roughly 1.4x.
	if c.RiseMinusInf < 1.1*c.FallMinusInf {
		t.Errorf("rise/fall ratio too small: %g vs %g", c.RiseMinusInf, c.FallMinusInf)
	}
}

// TestFallingWaveformShape reproduces Fig. 2a: the analog output slope
// visibly steepens when the second input arrives.
func TestFallingWaveformShape(t *testing.T) {
	b := newBench(t)
	res, err := b.FallingWaveforms(30e-12)
	if err != nil {
		t.Fatal(err)
	}
	vdd := b.Params().Supply.VDD
	if res.Out.At(0) < 0.95*vdd {
		t.Error("output must start high")
	}
	end := res.Out.End()
	if res.Out.At(end) > 0.05*vdd {
		t.Error("output must end low")
	}
	// Inputs cross the threshold 30 ps apart.
	ca, ok := res.In[0].FirstCrossingAfter(0, b.Params().Supply.Vth, true)
	if !ok {
		t.Fatal("input A never crossed")
	}
	cb, ok := res.In[1].FirstCrossingAfter(0, b.Params().Supply.Vth, true)
	if !ok {
		t.Fatal("input B never crossed")
	}
	if math.Abs((cb-ca)-30e-12) > 1e-12 {
		t.Errorf("input separation = %g, want 30 ps", cb-ca)
	}
}

// TestRisingWaveformShape reproduces Fig. 2c: the gate only switches
// after both inputs have fallen.
func TestRisingWaveformShape(t *testing.T) {
	b := newBench(t)
	res, err := b.RisingWaveforms(40e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	vdd := b.Params().Supply.VDD
	// Find the later input's crossing and the output crossing.
	cb, ok := res.In[1].FirstCrossingAfter(0, b.Params().Supply.Vth, false)
	if !ok {
		t.Fatal("input B never fell")
	}
	co, ok := res.Out.FirstCrossingAfter(0, b.Params().Supply.Vth, true)
	if !ok {
		t.Fatal("output never rose")
	}
	if co <= cb {
		t.Error("output rose before the later input fell")
	}
	if res.Out.At(res.Out.End()) < 0.9*vdd {
		t.Error("output must end high")
	}
}

// TestRisingVNWorstCase: starting with V_N = GND is slower than with
// V_N = VDD (the history effect of §II).
func TestRisingVNWorstCase(t *testing.T) {
	b := newBench(t)
	slow, err := b.RisingDelay(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := b.RisingDelay(0, b.Params().Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if fast >= slow {
		t.Errorf("V_N=VDD (%g) should be faster than V_N=GND (%g)", fast, slow)
	}
}

// TestSweepMonotoneTails: delays converge to the SIS values for large
// separations.
func TestSweepMonotoneTails(t *testing.T) {
	b := newBench(t)
	d1, err := b.FallingDelay(150e-12)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := b.FallingDelay(nor.SISFar)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1-d2) > 0.5e-12 {
		t.Errorf("falling tail not converged: %g vs %g", d1, d2)
	}
}

func TestSweepsAPI(t *testing.T) {
	b := newBench(t)
	deltas := []float64{-40e-12, 0, 40e-12}
	fs, err := b.FallingSweep(deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatal("sweep length wrong")
	}
	rs, err := b.RisingSweep(deltas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatal("sweep length wrong")
	}
	for _, pt := range append(fs, rs...) {
		if pt.Delay <= 0 || pt.Delay > 200e-12 {
			t.Errorf("implausible delay %g at Delta %g", pt.Delay, pt.Delta)
		}
	}
}

func TestNodesAndCircuit(t *testing.T) {
	b := newBench(t)
	// Ground, vdd, the inputs a and b, the internal node n and the
	// output o, each created once.
	if n := b.Circuit().NumNodes(); n != 6 {
		t.Errorf("bench has %d nodes, want 6 (ground, vdd, a, b, n, o)", n)
	}
	if b.Circuit() == nil {
		t.Error("circuit accessor nil")
	}
	if err := b.Circuit().Validate(); err != nil {
		t.Errorf("bench netlist invalid: %v", err)
	}
}
