package nor_test

import (
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

func newNAND(t *testing.T) *gate.AnalogBench {
	return newGateBench(t, gate.NAND2, fastParams())
}

func TestNANDNewValidation(t *testing.T) {
	p := nor.DefaultParams()
	p.CO = 0
	if _, err := gate.NewAnalogBench(gate.NAND2, p); err == nil {
		t.Error("zero CO accepted")
	}
	p = nor.DefaultParams()
	p.InputRise = -1
	if _, err := gate.NewAnalogBench(gate.NAND2, p); err == nil {
		t.Error("negative rise accepted")
	}
	p = nor.DefaultParams()
	p.Supply = waveform.Supply{}
	if _, err := gate.NewAnalogBench(gate.NAND2, p); err == nil {
		t.Error("invalid supply accepted")
	}
}

// TestNANDTruthTable: settled outputs for all four input states.
func TestNANDTruthTable(t *testing.T) {
	b := newNAND(t)
	vdd := b.Params().Supply.VDD
	cases := []struct {
		a, bb float64
		high  bool
	}{
		{0, 0, true},
		{0, vdd, true},
		{vdd, 0, true},
		{vdd, vdd, false},
	}
	for _, c := range cases {
		res, err := b.Simulate([]waveform.Signal{waveform.Constant(c.a), waveform.Constant(c.bb)},
			2e-9, vdd/2, vdd/2, nil)
		if err != nil {
			t.Fatalf("(%g, %g): %v", c.a, c.bb, err)
		}
		vo := res.Out.At(2e-9)
		if c.high && vo < 0.9*vdd {
			t.Errorf("NAND(%g, %g) settled at %g, want ~VDD", c.a, c.bb, vo)
		}
		if !c.high && vo > 0.1*vdd {
			t.Errorf("NAND(%g, %g) settled at %g, want ~0", c.a, c.bb, vo)
		}
	}
}

// TestNANDMISMirrored: the analog NAND shows the mirrored Charlie
// effects — rising speed-up (parallel pMOS), falling slow-down bump
// (serial nMOS stack with node M).
func TestNANDMISMirrored(t *testing.T) {
	b := newNAND(t)
	c := characteristic(t, b)
	// Rising output: MIS speed-up.
	if !(c.RiseZero < c.RiseMinusInf && c.RiseZero < c.RisePlusInf) {
		t.Errorf("NAND rising speed-up missing: %+v", c)
	}
	dip := (c.RiseZero - c.RiseMinusInf) / c.RiseMinusInf
	if dip > -0.15 || dip < -0.55 {
		t.Errorf("NAND rising dip = %.1f%%, expected a pronounced speed-up", 100*dip)
	}
	// Falling output: MIS slow-down at Delta = 0 relative to both tails.
	if !(c.FallZero > c.FallMinusInf && c.FallZero > c.FallPlusInf) {
		t.Errorf("NAND falling slow-down missing: %+v", c)
	}
	// The serial stack makes falling slower than rising overall.
	if c.FallMinusInf < c.RiseMinusInf {
		t.Errorf("NAND fall(-inf)=%g should exceed rise(-inf)=%g (stack vs parallel)",
			c.FallMinusInf, c.RiseMinusInf)
	}
}

// TestNANDWorstCaseM: a precharged stack node M slows the falling output
// (the mirror of the paper's V_N worst-case discussion).
func TestNANDWorstCaseM(t *testing.T) {
	b := newNAND(t)
	slow, err := b.FallingDelay(0) // worst-case fill V_M = VDD
	if err != nil {
		t.Fatal(err)
	}
	e := b.Charlie(0, false)
	e.Fill = 0
	fast, err := b.Delay(e)
	if err != nil {
		t.Fatal(err)
	}
	if slow <= fast {
		t.Errorf("VM=VDD (%g) should be slower than VM=0 (%g)", slow, fast)
	}
}
