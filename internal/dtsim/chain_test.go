package dtsim

import (
	"math"
	"testing"

	"hybriddelay/internal/idm"
	"hybriddelay/internal/trace"
)

// inverterChain passes a trace through stages inverters, each a
// zero-time inversion followed by an involution channel — the circuit
// class the Involution Tool's original evaluation used.
func inverterChain(in trace.Trace, stages int, df DelayFunc) trace.Trace {
	for range stages {
		in = ApplyDelay(in.Invert(), df)
	}
	return in
}

// TestInverterChainDelayAccumulates: a chain of N inverters, each with a
// symmetric exp channel, delays a single edge by ~N*delta(inf).
func TestInverterChainDelayAccumulates(t *testing.T) {
	const stages = 5
	ch, err := idm.NewExp(20e-12, 20e-12, 5e-12)
	if err != nil {
		t.Fatal(err)
	}
	edge := 1e-9
	got := inverterChain(trace.New(false, []trace.Event{{Time: edge, Value: true}}), stages, ch)
	if got.NumEvents() != 1 {
		t.Fatalf("chain output %+v", got.Events)
	}
	// Parity: 5 inverters invert; initial out = !...!false.
	if got.Initial != true || got.Events[0].Value != false {
		t.Errorf("chain polarity wrong: %+v", got)
	}
	want := edge + stages*ch.DelayUpInf() // all stages see T = inf on a first edge
	if math.Abs(got.Events[0].Time-want) > 1e-15 {
		t.Errorf("chain delay %g, want %g", got.Events[0].Time-edge, want-edge)
	}
}

// TestInverterChainPulseShrinks: a short pulse through involution
// channels shrinks at every stage and eventually vanishes — the
// short-pulse filtration behaviour the IDM models faithfully.
func TestInverterChainPulseShrinks(t *testing.T) {
	ch, err := idm.NewExp(20e-12, 20e-12, 5e-12)
	if err != nil {
		t.Fatal(err)
	}
	run := func(widthPs float64, stages int) int {
		in := trace.New(false, []trace.Event{
			{Time: 1e-9, Value: true},
			{Time: 1e-9 + widthPs*1e-12, Value: false},
		})
		return inverterChain(in, stages, ch).NumEvents()
	}
	// A wide pulse survives 8 stages.
	if got := run(200, 8); got != 2 {
		t.Errorf("wide pulse: %d output events, want 2", got)
	}
	// A marginal pulse dies somewhere down the chain.
	if got := run(16, 8); got != 0 {
		t.Errorf("marginal pulse survived 8 stages: %d events", got)
	}
	// The same marginal pulse survives a single stage (it shrinks, it is
	// not instantly removed — unlike inertial delay).
	if got := run(16, 1); got != 2 {
		t.Errorf("marginal pulse through one stage: %d events, want 2", got)
	}
}

// TestMixedCircuit: a NOR gate + inverter with a channel behind each
// composes correctly.
func TestMixedCircuit(t *testing.T) {
	exp, err := idm.NewExp(15e-12, 10e-12, 3e-12)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.New(false, []trace.Event{{Time: 1e-9, Value: true}})
	b := trace.New(false, nil)
	norOut := ApplyDelay(trace.NOR2(a, b), exp)
	invOut := ApplyDelay(norOut.Invert(), exp)

	// a=b=0: nor=1, inv=0 initially.
	if invOut.Initial != false {
		t.Fatal("initial state wrong")
	}
	if invOut.NumEvents() != 1 || !invOut.Events[0].Value {
		t.Fatalf("circuit output %+v", invOut.Events)
	}
	// Total delay = fall delay of the NOR channel + rise delay of the
	// inverter channel (both at T=inf).
	want := 1e-9 + exp.DelayDownInf() + exp.DelayUpInf()
	if math.Abs(invOut.Events[0].Time-want) > 1e-15 {
		t.Errorf("total delay %g, want %g", invOut.Events[0].Time, want)
	}
}
