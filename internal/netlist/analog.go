package netlist

import (
	"fmt"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
)

// Bench is a netlist elaborated into one flat transistor-level MNA
// circuit: every instance's subcircuit is stamped (via Gate.Stamp) into
// a shared gate.Testbench with shared nets, so each stage drives the
// next stage's gate capacitances through its own per-stage output load
// — the composed analog golden reference of circuit-level evaluation.
//
// Like the single-gate bench, a Bench owns mutable simulator state
// (input-source signals, device charge state) and must not run two
// transients at once; use Clone (or the pooling CircuitBenchSource in
// internal/eval) for concurrency.
//
// Construction is deliberately order-preserving: the testbench creates
// the supply, the primary inputs in netlist order and their sources,
// then each instance (in topological order) stamps internals before
// its output. For a single-gate netlist this reproduces the gate's own
// bench variable for variable and device for device, which is what
// makes the composed golden bit-identical to the per-gate pipeline.
type Bench struct {
	*gate.Testbench
	nl        *Netlist
	init      map[spice.NodeID]float64
	recorded  []string
	recordIDs []spice.NodeID
}

// NewBench validates the netlist and flattens it into a fresh circuit.
func NewBench(nl *Netlist, p nor.Params) (*Bench, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	order, err := nl.Order()
	if err != nil {
		return nil, err
	}
	initVals, err := nl.InitialValues()
	if err != nil {
		return nil, err
	}
	b := &Bench{nl: nl, init: map[spice.NodeID]float64{}}
	nodes := map[string]spice.NodeID{}
	scope := nl.ContentKey() + "|" + nor.SymbolicScope("netlist", p)
	tb, err := gate.NewTestbench(p, nl.Inputs, "V.", scope, func(c *spice.Circuit, vdd spice.NodeID, in []spice.NodeID) error {
		for i, name := range nl.Inputs {
			nodes[name] = in[i]
		}
		for _, i := range order {
			inst := nl.Instances[i]
			g, err := gateOf(inst)
			if err != nil {
				return err
			}
			in := make([]spice.NodeID, len(inst.Inputs))
			initIn := make([]bool, len(inst.Inputs))
			for k, net := range inst.Inputs {
				in[k] = nodes[net]
				initIn[k] = initVals[net]
			}
			sub, err := g.Stamp(c, inst.Name+".", inst.Output, p, vdd, in, initIn)
			if err != nil {
				return fmt.Errorf("instance %q: %w", inst.Name, err)
			}
			nodes[inst.Output] = sub.Out
			//hybrid:nondet-ok map-to-map copy with distinct keys; visit order cannot change the merged contents
			for node, v := range sub.Initial {
				b.init[node] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("netlist %s: %w", nl.label(), err)
	}
	b.Testbench = tb
	b.recorded = nl.Recorded()
	for _, net := range b.recorded {
		b.recordIDs = append(b.recordIDs, nodes[net])
	}
	return b, nil
}

// Netlist returns the description the bench was elaborated from.
func (b *Bench) Netlist() *Netlist { return b.nl }

// Recorded returns the recorded net names in report order.
func (b *Bench) Recorded() []string { return append([]string(nil), b.recorded...) }

// Clone returns an independent bench over the same netlist and
// parameters; clones may run transients concurrently.
func (b *Bench) Clone() (*Bench, error) { return NewBench(b.nl, b.Params()) }

// Golden runs the composed analog transient over the given primary
// input traces (all starting low, as everywhere in the pipeline) and
// returns the digitized trace of every recorded net. The circuit
// starts in the settled all-low-input state, with internal nodes that
// the state isolates at the paper's worst case GND.
func (b *Bench) Golden(inputs []trace.Trace, until float64) (map[string]trace.Trace, error) {
	if len(inputs) != len(b.nl.Inputs) {
		return nil, fmt.Errorf("netlist %s: %d primary inputs, got %d traces",
			b.nl.label(), len(b.nl.Inputs), len(inputs))
	}
	p := b.Params()
	sigs, bps, err := gate.InputSignals(p, inputs)
	if err != nil {
		return nil, fmt.Errorf("netlist %s: %w", b.nl.label(), err)
	}
	res, err := b.Run(sigs, until, b.init, bps, b.recordIDs)
	if err != nil {
		return nil, fmt.Errorf("netlist %s: composed transient: %w", b.nl.label(), err)
	}
	out := make(map[string]trace.Trace, len(b.recorded))
	for i, net := range b.recorded {
		w, err := res.Waveform(b.recordIDs[i])
		if err != nil {
			return nil, fmt.Errorf("netlist %s: net %q: %w", b.nl.label(), net, err)
		}
		out[net] = trace.Digitize(w, p.Supply.Vth)
	}
	return out, nil
}
