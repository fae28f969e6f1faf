package gate

import (
	"fmt"
	"math"
	"slices"

	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// Testbench is the analog core every golden bench is built on: one
// circuit holding the supply, one voltage source per primary input and
// the stamped gates, plus one persistent solver. Its Run is the only
// transient call of the golden reference — the single-gate AnalogBench
// and the netlist composer both drive their circuits through it.
//
// A Testbench owns mutable simulator state (input-source signals,
// device charge state) and must not run two transients at once.
type Testbench struct {
	p       nor.Params
	circuit *spice.Circuit
	solver  *spice.Solver
	srcs    []*spice.VSource
}

// NewTestbench builds a testbench in a fixed order: node vdd, one node
// per primary input, the Vdd source, one constant-low placeholder
// source per input (named srcPrefix+input), then whatever stamp adds
// between the supply node and the input nodes. The order is part of
// the contract: MNA variable and stamping order affect floating-point
// sums, and equal construction is what makes a single-gate netlist
// bit-identical to the gate's own bench. The persistent solver is
// scoped to scope (see spice.Solver.SetSymbolicScope).
func NewTestbench(p nor.Params, inputs []string, srcPrefix, scope string,
	stamp func(c *spice.Circuit, vdd spice.NodeID, in []spice.NodeID) error) (*Testbench, error) {
	c := spice.NewCircuit()
	vdd := c.Node("vdd")
	in := make([]spice.NodeID, len(inputs))
	for i, name := range inputs {
		in[i] = c.Node(name)
	}
	c.AddDCVSource("Vdd", vdd, spice.Ground, p.Supply.VDD)
	t := &Testbench{p: p, circuit: c}
	for i, name := range inputs {
		t.srcs = append(t.srcs, c.AddVSource(srcPrefix+name, in[i], spice.Ground, waveform.Constant(0)))
	}
	if err := stamp(c, vdd, in); err != nil {
		return nil, err
	}
	sv, err := spice.NewSolver(c)
	if err != nil {
		return nil, err
	}
	sv.SetSymbolicScope(scope)
	t.solver = sv
	return t, nil
}

// Params returns the testbench parameters.
func (t *Testbench) Params() nor.Params { return t.p }

// Circuit exposes the underlying MNA circuit (diagnostics and tests).
func (t *Testbench) Circuit() *spice.Circuit { return t.circuit }

// SolverStats returns the persistent solver's cumulative counters over
// every transient this bench has run.
func (t *Testbench) SolverStats() spice.SolverStats { return t.solver.Stats() }

// Run drives the input sources with sigs over [0, tStop], starting from
// the given node voltages (the rails and inputs are held by their
// sources), resetting the step at bps and recording the given nodes.
// Record selection only affects capture: every recorded sample is the
// same whichever nodes are kept.
func (t *Testbench) Run(sigs []waveform.Signal, tStop float64, init map[spice.NodeID]float64,
	bps []float64, record []spice.NodeID) (*spice.TransientResult, error) {
	if len(sigs) != len(t.srcs) {
		return nil, fmt.Errorf("gate: testbench has %d inputs, got %d signals", len(t.srcs), len(sigs))
	}
	for i, src := range t.srcs {
		src.Signal = sigs[i]
	}
	return t.solver.Transient(spice.TransientOptions{
		TStop:             tStop,
		MaxStep:           t.p.MaxStep,
		LTETol:            t.p.LTETol,
		Method:            t.p.Method,
		Solver:            t.p.Solver,
		SparsePivotRel:    t.p.SparsePivotRel,
		Breakpoints:       bps,
		InitialConditions: init,
		Record:            record,
	})
}

// AnalogBench is the transistor-level golden bench of one gate: its
// Stamp subcircuit alone on a Testbench, inputs a, b[, c] and output o.
// It implements Bench for every registered gate; the per-gate
// knowledge beyond Stamp is the gate's probe table (its Charlie edge
// experiments and per-pin arcs).
type AnalogBench struct {
	*Testbench
	g   analogGate
	in  []spice.NodeID
	sub Subcircuit
}

// analogGate is the probe table a gate adds to Stamp for its bench.
type analogGate interface {
	Gate
	// charlie is the pin-(0,1) Charlie experiment at input separation
	// delta = t_B - t_A for the given output direction, with the
	// internal nodes at the gate's worst-case fill.
	charlie(p nor.Params, delta float64, outRising bool) Edge
	// arcs maps the measured pair characteristic onto per-pin SIS
	// arcs, running any extra probes on b.
	arcs(b *AnalogBench, pair hybrid.Characteristic) (inertial.Arcs, error)
}

// NewAnalogBench builds the golden bench of g: node vdd, the input
// nodes, the Vdd and Va, Vb[, Vc] sources, then one Stamp of g in the
// settled all-low input state.
func NewAnalogBench(g Gate, p nor.Params) (*AnalogBench, error) {
	ag, ok := g.(analogGate)
	if !ok {
		return nil, fmt.Errorf("gate %s: no analog bench", g.Name())
	}
	b := &AnalogBench{g: ag}
	names := []string{"a", "b", "c"}[:g.Arity()]
	tb, err := NewTestbench(p, names, "V", nor.SymbolicScope(g.Name(), p),
		func(c *spice.Circuit, vdd spice.NodeID, in []spice.NodeID) error {
			var err error
			b.in = in
			b.sub, err = g.Stamp(c, "", "o", p, vdd, in, make([]bool, len(in)))
			return err
		})
	if err != nil {
		return nil, err
	}
	b.Testbench = tb
	return b, nil
}

// newBench is every registered gate's NewBench.
func newBench(g Gate, p nor.Params) (Bench, error) {
	b, err := NewAnalogBench(g, p)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Gate implements Bench.
func (b *AnalogBench) Gate() Gate { return b.g }

// Clone returns an independent bench with identical parameters and a
// freshly built circuit; clones may run transients concurrently with
// the original.
func (b *AnalogBench) Clone() (*AnalogBench, error) { return NewAnalogBench(b.g, b.p) }

// Golden implements Bench: the analog transient over the input traces
// from the settled all-low state Stamp reports, digitized at V_th.
func (b *AnalogBench) Golden(inputs []trace.Trace, until float64) (trace.Trace, error) {
	name := b.g.Name()
	if len(inputs) != len(b.in) {
		return trace.Trace{}, fmt.Errorf("gate %s: want %d inputs, got %d", name, len(b.in), len(inputs))
	}
	sigs, bps, err := InputSignals(b.p, inputs)
	if err != nil {
		return trace.Trace{}, err
	}
	res, err := b.Run(sigs, until, b.sub.Initial, bps, []spice.NodeID{b.sub.Out})
	if err != nil {
		return trace.Trace{}, fmt.Errorf("gate %s: golden transient: %w", name, err)
	}
	o, err := res.Waveform(b.sub.Out)
	if err != nil {
		return trace.Trace{}, err
	}
	return trace.Digitize(o, b.p.Supply.Vth), nil
}

// Measure implements Bench: the six pin-(0,1) Charlie delays at
// Delta = -inf, 0, +inf (nor.SISFar) for each output direction, then
// the gate's per-pin arcs.
func (b *AnalogBench) Measure() (Measurement, error) {
	deltas := []float64{-nor.SISFar, 0, nor.SISFar}
	var d [6]float64
	for i := range d {
		var err error
		if d[i], err = b.Delay(b.Charlie(deltas[i%3], i >= 3)); err != nil {
			return Measurement{}, err
		}
	}
	pair := hybrid.Characteristic{
		FallMinusInf: d[0], FallZero: d[1], FallPlusInf: d[2],
		RiseMinusInf: d[3], RiseZero: d[4], RisePlusInf: d[5],
	}
	arcs, err := b.g.arcs(b, pair)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Pair: pair, Arcs: arcs}, nil
}

// Edge is one edge experiment on a single-gate bench: every input makes
// one raised-cosine edge in the same direction from the settled
// opposite level, and the delay is the output's V_th crossing measured
// from the first or the last input crossing.
type Edge struct {
	// Offsets holds each input's threshold-crossing time relative to
	// the others; the earliest edge sits a fixed lead (20 input rise
	// times plus 60 ps) after t = 0.
	Offsets []float64
	// Rising selects rising inputs (all start low) or falling ones
	// (all start high).
	Rising bool
	// Fill is the initial voltage of every internal node; the output
	// starts at the gate's logic level in the starting input state.
	Fill float64
	// Tail is the simulated time after the last input crossing.
	Tail float64
	// FromLast measures from the last input crossing, searching the
	// output from t = 0; otherwise from the first input crossing,
	// searching from one input rise time before it.
	FromLast bool
}

// pairOffsets places the pin-(0,1) edges Delta = t_B - t_A apart with
// the earlier one at offset 0.
func pairOffsets(delta float64) []float64 {
	if delta < 0 {
		return []float64{-delta, 0}
	}
	return []float64{0, delta}
}

// edgeRun is the stimulus of one Edge.
type edgeRun struct {
	sigs        []waveform.Signal
	bps         []float64
	first, last float64 // earliest and latest input crossings
	tStop       float64
	vOut        float64 // initial output voltage
	outRising   bool
}

// stimulus lays out e's input edges on the bench.
func (b *AnalogBench) stimulus(e Edge) (edgeRun, error) {
	if len(e.Offsets) != len(b.in) {
		return edgeRun{}, fmt.Errorf("gate %s: edge experiment wants %d offsets, got %d", b.g.Name(), len(b.in), len(e.Offsets))
	}
	p := b.p
	lead := 20*p.InputRise + 60e-12
	t0 := slices.Min(e.Offsets)
	v0, v1 := 0.0, p.Supply.VDD
	if !e.Rising {
		v0, v1 = v1, v0
	}
	start := make([]bool, len(b.in))
	for i := range start {
		start[i] = !e.Rising
	}
	r := edgeRun{first: math.Inf(1), last: math.Inf(-1), outRising: !b.g.Logic(start)}
	if !r.outRising {
		r.vOut = p.Supply.VDD
	}
	for _, o := range e.Offsets {
		t := lead + o - t0
		r.first, r.last = min(r.first, t), max(r.last, t)
		r.sigs = append(r.sigs, waveform.RaisedCosineEdge(t, p.InputRise, v0, v1))
		r.bps = append(r.bps, t-p.InputRise/2)
	}
	r.tStop = r.last + e.Tail
	return r, nil
}

// run drives the bench from every internal node at fill and the output
// at vOut.
func (b *AnalogBench) run(sigs []waveform.Signal, tStop, fill, vOut float64, bps []float64, record []spice.NodeID) (*spice.TransientResult, error) {
	init := make(map[spice.NodeID]float64, len(b.sub.Internal)+1)
	for _, n := range b.sub.Internal {
		init[n] = fill
	}
	init[b.sub.Out] = vOut
	return b.Run(sigs, tStop, init, bps, record)
}

// Delay runs one edge experiment and returns the output delay.
func (b *AnalogBench) Delay(e Edge) (float64, error) {
	r, err := b.stimulus(e)
	if err != nil {
		return 0, err
	}
	res, err := b.run(r.sigs, r.tStop, e.Fill, r.vOut, r.bps, []spice.NodeID{b.sub.Out})
	if err != nil {
		return 0, err
	}
	o, err := res.Waveform(b.sub.Out)
	if err != nil {
		return 0, err
	}
	ref, from := r.first, r.first-b.p.InputRise
	if e.FromLast {
		ref, from = r.last, 0
	}
	tO, ok := o.FirstCrossingAfter(from, b.p.Supply.Vth, r.outRising)
	if !ok {
		return 0, fmt.Errorf("gate %s: output never switched (offsets %g)", b.g.Name(), e.Offsets)
	}
	return tO - ref, nil
}

// Waveforms are the node voltages of one bench run.
type Waveforms struct {
	In       []*waveform.Waveform // inputs, in pin order
	Internal []*waveform.Waveform // internal nodes, in stamp order
	Out      *waveform.Waveform
}

// Simulate drives the inputs with sigs over [0, tStop] from every
// internal node at fill and the output at vOut, and returns every
// node's waveform.
func (b *AnalogBench) Simulate(sigs []waveform.Signal, tStop, fill, vOut float64, bps []float64) (*Waveforms, error) {
	nodes := append(append(append([]spice.NodeID(nil), b.in...), b.sub.Internal...), b.sub.Out)
	res, err := b.run(sigs, tStop, fill, vOut, bps, nodes)
	if err != nil {
		return nil, err
	}
	ws := make([]*waveform.Waveform, len(nodes))
	for i, n := range nodes {
		if ws[i], err = res.Waveform(n); err != nil {
			return nil, err
		}
	}
	k := len(b.in) + len(b.sub.Internal)
	return &Waveforms{In: ws[:len(b.in)], Internal: ws[len(b.in):k], Out: ws[k]}, nil
}

// Charlie returns the gate's pin-(0,1) Charlie experiment at input
// separation delta = t_B - t_A for the given output direction, with the
// internal nodes at the gate's worst-case fill (the paper's V_N = GND
// for the NOR's rising output).
func (b *AnalogBench) Charlie(delta float64, outRising bool) Edge {
	return b.g.charlie(b.p, delta, outRising)
}

// FallingDelay is the falling-output Charlie delay delta_fall(Delta)
// (worst-case internal fill).
func (b *AnalogBench) FallingDelay(delta float64) (float64, error) {
	return b.Delay(b.Charlie(delta, false))
}

// RisingDelay is the rising-output Charlie delay delta_rise(Delta) with
// every internal node starting at fill (the NOR's V_N).
func (b *AnalogBench) RisingDelay(delta, fill float64) (float64, error) {
	e := b.Charlie(delta, true)
	e.Fill = fill
	return b.Delay(e)
}

// FallingWaveforms runs the falling-output experiment at delta and
// returns every node's waveform (Fig. 2a).
func (b *AnalogBench) FallingWaveforms(delta float64) (*Waveforms, error) {
	return b.waveforms(b.Charlie(delta, false))
}

// RisingWaveforms runs the rising-output experiment at delta from the
// given internal fill and returns every node's waveform (Fig. 2c).
func (b *AnalogBench) RisingWaveforms(delta, fill float64) (*Waveforms, error) {
	e := b.Charlie(delta, true)
	e.Fill = fill
	return b.waveforms(e)
}

func (b *AnalogBench) waveforms(e Edge) (*Waveforms, error) {
	r, err := b.stimulus(e)
	if err != nil {
		return nil, err
	}
	return b.Simulate(r.sigs, r.tStop, e.Fill, r.vOut, r.bps)
}

// FallingSweep samples delta_fall over the given separations.
func (b *AnalogBench) FallingSweep(deltas []float64) ([]hybrid.SweepPoint, error) {
	return sweep(deltas, b.FallingDelay)
}

// RisingSweep samples delta_rise over the given separations from the
// given internal fill.
func (b *AnalogBench) RisingSweep(deltas []float64, fill float64) ([]hybrid.SweepPoint, error) {
	return sweep(deltas, func(d float64) (float64, error) { return b.RisingDelay(d, fill) })
}

func sweep(deltas []float64, delay func(float64) (float64, error)) ([]hybrid.SweepPoint, error) {
	out := make([]hybrid.SweepPoint, 0, len(deltas))
	for _, d := range deltas {
		v, err := delay(d)
		if err != nil {
			return nil, err
		}
		out = append(out, hybrid.SweepPoint{Delta: d, Delay: v})
	}
	return out, nil
}
