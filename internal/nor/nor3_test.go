package nor_test

import (
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

func newNOR3(t *testing.T) *gate.AnalogBench {
	return newGateBench(t, gate.NOR3, fastParams())
}

// fallingDelay3 is the NOR3 falling-output delay for rising inputs at
// offsets (0, dB, dC) relative to input A.
func fallingDelay3(b *gate.AnalogBench, dB, dC float64) (float64, error) {
	return b.Delay(gate.NOR3Edge(b.Params(), dB, dC, false))
}

// risingDelay3 is the NOR3 rising-output delay for falling inputs at
// offsets (0, dB, dC), with both stack nodes starting at fill.
func risingDelay3(b *gate.AnalogBench, dB, dC, fill float64) (float64, error) {
	e := gate.NOR3Edge(b.Params(), dB, dC, true)
	e.Fill = fill
	return b.Delay(e)
}

func TestNOR3Validation(t *testing.T) {
	p := nor.DefaultParams()
	p.CO = 0
	if _, err := gate.NewAnalogBench(gate.NOR3, p); err == nil {
		t.Error("zero CO accepted")
	}
	p = nor.DefaultParams()
	p.Supply = waveform.Supply{}
	if _, err := gate.NewAnalogBench(gate.NOR3, p); err == nil {
		t.Error("invalid supply accepted")
	}
	p = nor.DefaultParams()
	p.InputRise = 0
	if _, err := gate.NewAnalogBench(gate.NOR3, p); err == nil {
		t.Error("zero rise accepted")
	}
}

// TestNOR3AnalogMISOrdering: the analog 3-input gate shows the
// three-level falling MIS hierarchy the generalized hybrid model
// predicts: all-simultaneous < pairwise < SIS.
func TestNOR3AnalogMISOrdering(t *testing.T) {
	b := newNOR3(t)
	all, err := fallingDelay3(b, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	two, err := fallingDelay3(b, 0, nor.SISFar)
	if err != nil {
		t.Fatal(err)
	}
	sis, err := fallingDelay3(b, nor.SISFar, 2*nor.SISFar)
	if err != nil {
		t.Fatal(err)
	}
	if !(all < two && two < sis) {
		t.Errorf("analog 3-input MIS ordering broken: all=%.2fps two=%.2fps sis=%.2fps",
			waveform.ToPs(all), waveform.ToPs(two), waveform.ToPs(sis))
	}
	// The three-way dip is deeper than the two-way one.
	dip3 := (all - sis) / sis
	dip2 := (two - sis) / sis
	if !(dip3 < dip2 && dip3 < -0.3) {
		t.Errorf("dips: three-way %.1f%%, two-way %.1f%%", 100*dip3, 100*dip2)
	}
}

// TestNOR3AnalogRisingStack: the three-deep stack slows the rising
// output relative to the 2-input gate, and discharged internal nodes
// (worst case) are slower than precharged ones.
func TestNOR3AnalogRisingStack(t *testing.T) {
	b3 := newNOR3(t)
	b2 := newGateBench(t, gate.NOR2, fastParams())
	rise3, err := risingDelay3(b3, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rise2, err := b2.RisingDelay(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rise3 <= rise2 {
		t.Errorf("NOR3 rise(0)=%.2fps should exceed NOR2 rise(0)=%.2fps",
			waveform.ToPs(rise3), waveform.ToPs(rise2))
	}
	worst, err := risingDelay3(b3, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := risingDelay3(b3, 0, 0, b3.Params().Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if pre >= worst {
		t.Errorf("precharged stack (%.2fps) should be faster than discharged (%.2fps)",
			waveform.ToPs(pre), waveform.ToPs(worst))
	}
}

// TestNOR3ModelTracksAnalog: the generalized switch-level model,
// parametrized by a least-squares-free direct mapping from the 2-input
// fit, tracks the analog 3-input MIS *shape* (ordering and rough dip
// depth), which is the same standard the paper's Fig. 5 holds the
// 2-input model to.
func TestNOR3ModelTracksAnalog(t *testing.T) {
	// This test compares shapes, not absolute ps (the 3-input model is
	// extrapolated, not fitted).
	b := newNOR3(t)
	all, err := fallingDelay3(b, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sis, err := fallingDelay3(b, nor.SISFar, 2*nor.SISFar)
	if err != nil {
		t.Fatal(err)
	}
	analogDip := (all - sis) / sis

	// Model: extrapolate from a fit against the 2-input golden bench.
	p2 := nor.DefaultParams()
	p2.MaxStep = 8e-12
	// Reuse the known-good archived characteristic rather than refitting
	// (cheap and deterministic): measured values of the default bench.
	// (See eval tests for the full fit path.)
	_ = p2
	model := hybrid.NOR3FromNOR2(hybrid.TableI())
	mc, err := model.Characteristic3()
	if err != nil {
		t.Fatal(err)
	}
	modelDip := (mc.FallAllZero - mc.FallSIS) / mc.FallSIS
	if analogDip > -0.25 || modelDip > -0.25 {
		t.Errorf("three-way dips too shallow: analog %.1f%%, model %.1f%%", 100*analogDip, 100*modelDip)
	}
	// Both should land in the same broad band (the ideal-switch model
	// overshoots the dip, as in the 2-input case).
	if modelDip < analogDip-0.35 || modelDip > analogDip+0.35 {
		t.Errorf("model dip %.1f%% far from analog dip %.1f%%", 100*modelDip, 100*analogDip)
	}
}
