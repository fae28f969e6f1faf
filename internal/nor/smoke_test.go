package nor_test

import (
	"testing"

	"hybriddelay/internal/waveform"
)

// TestSmokeDelays exercises the full analog path end to end and prints
// the characteristic delays; detailed assertions live in nor_test.go.
func TestSmokeDelays(t *testing.T) {
	c := characteristic(t, newBench(t))
	t.Logf("fall: -inf=%.2fps 0=%.2fps +inf=%.2fps", waveform.ToPs(c.FallMinusInf), waveform.ToPs(c.FallZero), waveform.ToPs(c.FallPlusInf))
	t.Logf("rise: -inf=%.2fps 0=%.2fps +inf=%.2fps", waveform.ToPs(c.RiseMinusInf), waveform.ToPs(c.RiseZero), waveform.ToPs(c.RisePlusInf))
	if c.FallZero >= c.FallMinusInf || c.FallZero >= c.FallPlusInf {
		t.Errorf("expected falling MIS speed-up: %+v", c)
	}
}
