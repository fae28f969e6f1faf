// circuit composes a small multi-gate circuit from the offline channel
// pieces: the paper's hybrid 2-input NOR (carrying MIS state) feeding a
// three-stage inverter chain, where each inverter is a zero-time
// tied-input NOR followed by an involution exp-channel. It demonstrates
// how MIS-induced glitches at the NOR output propagate — or die — down
// the chain.
//
// This is the per-instance dataflow a Session CircuitJob runs on its
// model side (the same circuit ships as the "nor-invchain" netlist); a
// CircuitJob scores it against the composed analog golden instead of
// counting transitions.
//
// Run with:
//
//	go run ./examples/circuit
package main

import (
	"fmt"
	"log"

	"hybriddelay"
)

func main() {
	p := hybriddelay.TableI()
	exp := hybriddelay.ExpChannel{TauUp: 30e-12, TauDown: 25e-12, DMin: 8e-12}

	run := func(sepPs float64) (norEvents, outEvents int) {
		// Stimulus: both inputs start high (the NOR output starts low)
		// and drop, then input A rises again sepPs later — producing an
		// output pulse of roughly sepPs width at the NOR, which the chain
		// may or may not carry.
		t0 := hybriddelay.Ps(500)
		a := hybriddelay.NewTrace(true, t0, t0+hybriddelay.Ps(sepPs))
		b := hybriddelay.NewTrace(true, t0)
		// The paper's hybrid NOR channel, V_N worst case GND.
		nor, err := hybriddelay.ApplyNOR(p, a, b, 10e-9, 0)
		if err != nil {
			log.Fatal(err)
		}
		// Three inverters: NOR(y, y) = NOT y, then the exp-channel.
		y := nor
		for range 3 {
			y = hybriddelay.ApplyDelay(hybriddelay.NOR2Trace(y, y), exp, hybriddelay.PolicyInvolution)
		}
		return nor.NumEvents(), y.NumEvents()
	}

	fmt.Println("pulse created at the NOR by re-raising input A after `sep`:")
	fmt.Printf("%10s %18s %18s\n", "sep [ps]", "NOR transitions", "chain-out transitions")
	for _, sep := range []float64{10, 20, 30, 40, 60, 80, 100, 140, 220, 400} {
		n, o := run(sep)
		fmt.Printf("%10.0f %18d %18d\n", sep, n, o)
	}
	fmt.Println("\nShort separations die at the NOR itself (its trajectory never")
	fmt.Println("recrosses V_th); marginal ones emerge but shrink through the")
	fmt.Println("involution chain and vanish; long ones propagate to the end.")
}
