package gate

import (
	"fmt"

	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// NOR3 is the 3-input CMOS NOR extension: a three-deep pMOS stack with
// two internal nodes and three parallel pull-downs — the "multi-input
// gate" direction of the paper's title beyond the 2-input case it
// evaluates. Its hybrid model is the generalized switch-level RC gate
// (hybrid.SwitchGate) extrapolated from a 2-input fit of the bench's
// pin-(0,1) projection.
var NOR3 Gate = nor3{}

func init() { Register(NOR3) }

// farPin is the input separation that parks the third pin far away from
// the pin-(0,1) projection experiments: one SIS separation beyond the
// pair's ±SISFar MIS window, so its switch neither overlaps the window
// nor the measured output transition, while keeping the dead transient
// tail after the measurement short.
const farPin = 2 * nor.SISFar

type nor3 struct{}

func (nor3) Name() string         { return "nor3" }
func (nor3) Describe() string     { return "3-input CMOS NOR extension (three-deep pMOS stack)" }
func (nor3) Arity() int           { return 3 }
func (nor3) Logic(in []bool) bool { return !(in[0] || in[1] || in[2]) }

func (g nor3) NewBench(p nor.Params) (Bench, error) { return newBench(g, p) }

// Stamp implements Gate: the three-deep stack with internal nodes N1
// and N2 created first. Settled voltages follow the stack conduction
// from the top: N1 is VDD while A is low, N2 is VDD while A and B are
// both low; any node cut off from VDD ends at GND (either pulled low
// through the conducting lower stack onto the low output, or isolated
// at the paper's worst case).
func (g nor3) Stamp(c *spice.Circuit, prefix, outName string, p nor.Params, vdd spice.NodeID, in []spice.NodeID, init []bool) (Subcircuit, error) {
	if err := stampArgs(g, p, in, init); err != nil {
		return Subcircuit{}, err
	}
	n1 := c.Node(prefix + "n1")
	n2 := c.Node(prefix + "n2")
	o := c.Node(outName)
	nor.StampNOR3(c, prefix, p, vdd, in[0], in[1], in[2], n1, n2, o)
	vdd0 := p.Supply.VDD
	vN1, vN2, vO := 0.0, 0.0, 0.0
	if !init[0] {
		vN1 = vdd0
		if !init[1] {
			vN2 = vdd0
		}
	}
	if g.Logic(init) {
		vO = vdd0
	}
	return Subcircuit{
		Out:      o,
		Internal: []spice.NodeID{n1, n2},
		Initial:  map[spice.NodeID]float64{n1: vN1, n2: vN2, o: vO},
	}, nil
}

func (g nor3) BuildModels(meas Measurement, supply waveform.Supply, expDMin float64) (Models, error) {
	// The pair projection is NOR-framed, so the 2-input fit applies
	// directly — but its R2 lumps the two lower stack devices (T2 plus
	// the always-on T3 of the held-low pin C), so the 3-stack model
	// splits it across them, keeping the total path resistance the fit
	// actually measured. The result drives the generalized switch-level
	// channel.
	return buildModels(g, meas, meas.Pair, supply, expDMin, func(p hybrid.Params) Model {
		return NOR3Model{P: hybrid.NOR3Params{
			RP1: p.R1, RP2: p.R2 / 2, RP3: p.R2 / 2,
			RN1: p.R3, RN2: p.R4, RN3: p.R4,
			CN1: p.CN, CN2: p.CN, CO: p.CO,
			Supply: p.Supply,
			DMin:   p.DMin,
		}}
	})
}

// NOR3Edge is the 3-input NOR's edge experiment with inputs B and C
// crossing dB and dC after A. Rising inputs from (0,0,0) make the
// falling output, measured from the first input with the stack filled
// from VDD; falling inputs from (1,1,1) make the rising output,
// measured from the last input with the stack at the worst case GND.
func NOR3Edge(p nor.Params, dB, dC float64, outRising bool) Edge {
	if outRising {
		return Edge{Offsets: []float64{0, dB, dC}, Tail: 600e-12, FromLast: true}
	}
	return Edge{Offsets: []float64{0, dB, dC}, Rising: true, Fill: p.Supply.VDD, Tail: 400e-12}
}

// charlie implements analogGate: the pin-(0,1) experiments with pin C
// parked far away (rising far later in the falling experiments,
// falling far earlier in the rising ones), so the measured output
// transition is a pure A/B event.
func (nor3) charlie(p nor.Params, delta float64, outRising bool) Edge {
	if outRising {
		return NOR3Edge(p, delta, -farPin, true)
	}
	return NOR3Edge(p, delta, farPin, false)
}

// arcs implements analogGate: pins 0 and 1 reuse the pair mapping; pin
// 2 gets dedicated SIS probes (C switching isolated: first for falls,
// last for rises).
func (nor3) arcs(b *AnalogBench, pair hybrid.Characteristic) (inertial.Arcs, error) {
	far := nor.SISFar
	cFall, err := b.Delay(NOR3Edge(b.p, 0, -far, false))
	if err != nil {
		return nil, fmt.Errorf("gate nor3: pin C fall arc: %w", err)
	}
	cRise, err := b.Delay(NOR3Edge(b.p, -far, far, true))
	if err != nil {
		return nil, fmt.Errorf("gate nor3: pin C rise arc: %w", err)
	}
	return append(NOR2Arcs(pair), inertial.PinArcs{Fall: cFall, Rise: cRise}), nil
}

// NOR3Model applies the generalized switch-level hybrid channel of the
// 3-input NOR.
type NOR3Model struct {
	P hybrid.NOR3Params
}

// Apply implements Model. Internal nodes isolated by the initial input
// state are filled with the paper's worst case GND (irrelevant for
// all-low starts, where the pMOS stack drives every node).
func (m NOR3Model) Apply(in []trace.Trace, until float64) (trace.Trace, error) {
	return hybrid.ApplyGate(m.P.Gate(), in, until, 0)
}

// String implements Model.
func (m NOR3Model) String() string { return m.P.String() }
