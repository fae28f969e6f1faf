// Package spice implements a compact transient analog circuit simulator:
// modified nodal analysis (MNA) with Newton–Raphson linearisation of
// nonlinear devices and trapezoidal / backward-Euler integration of
// charge storage. It stands in for the Cadence Spectre + FreePDK15 golden
// reference used by the paper: the NOR gate of Fig. 1 is simulated at the
// transistor level (square-law MOSFETs with gate-coupling capacitances)
// to produce the "analog truth" that both the hybrid model and the
// digital channel models are judged against.
//
// The simulator is intentionally small but genuinely general: arbitrary
// node counts, resistors, capacitors, (time-varying) voltage sources,
// current sources and MOSFETs, DC operating-point analysis and adaptive
// transient analysis with breakpoint handling.
package spice

import (
	"fmt"
	"sort"

	"hybriddelay/internal/waveform"
)

// NodeID identifies a circuit node. Ground is always node 0.
type NodeID int

// Ground is the reference node.
const Ground NodeID = 0

// Circuit is a netlist under construction.
//
// A Circuit and its devices are not safe for concurrent use: stateful
// devices (Capacitor, MOSFET) carry charge state across timesteps and
// VSource signals are swapped per experiment, so at most one analysis
// may run on a circuit at a time. Build a separate circuit per
// goroutine (cf. gate.AnalogBench.Clone).
type Circuit struct {
	nodeNames []string // index = NodeID
	nodeIndex map[string]NodeID
	devices   []Device
	vsources  []*VSource // devices needing MNA branch currents, in order
}

// NewCircuit returns an empty circuit containing only the ground node.
func NewCircuit() *Circuit {
	c := &Circuit{nodeIndex: map[string]NodeID{"0": Ground, "gnd": Ground}}
	c.nodeNames = []string{"gnd"}
	return c
}

// Node returns the NodeID for name, creating the node on first use.
// The names "0" and "gnd" always refer to ground.
func (c *Circuit) Node(name string) NodeID {
	if id, ok := c.nodeIndex[name]; ok {
		return id
	}
	id := NodeID(len(c.nodeNames))
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIndex[name] = id
	return id
}

// NodeName returns the name of a node.
func (c *Circuit) NodeName(id NodeID) string {
	if int(id) < len(c.nodeNames) {
		return c.nodeNames[id]
	}
	return fmt.Sprintf("n%d", int(id))
}

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// Devices returns the devices in insertion order.
func (c *Circuit) Devices() []Device { return c.devices }

// Add registers a device with the circuit.
func (c *Circuit) Add(d Device) {
	c.devices = append(c.devices, d)
	if vs, ok := d.(*VSource); ok {
		vs.branch = len(c.vsources)
		c.vsources = append(c.vsources, vs)
	}
}

// AddResistor connects a resistor of r ohms between a and b.
func (c *Circuit) AddResistor(name string, a, b NodeID, r float64) *Resistor {
	d := &Resistor{name: name, a: a, b: b, R: r}
	c.Add(d)
	return d
}

// AddCapacitor connects a capacitor of f farads between a and b.
func (c *Circuit) AddCapacitor(name string, a, b NodeID, f float64) *Capacitor {
	d := &Capacitor{name: name, a: a, b: b, C: f}
	c.Add(d)
	return d
}

// AddVSource connects a voltage source between plus and minus driven by
// the given signal.
func (c *Circuit) AddVSource(name string, plus, minus NodeID, sig waveform.Signal) *VSource {
	d := &VSource{name: name, plus: plus, minus: minus, Signal: sig}
	c.Add(d)
	return d
}

// AddDCVSource connects a constant voltage source.
func (c *Circuit) AddDCVSource(name string, plus, minus NodeID, volts float64) *VSource {
	return c.AddVSource(name, plus, minus, waveform.Constant(volts))
}

// AddISource connects a constant current source pushing amps from minus
// to plus through the external circuit (conventional current into plus).
func (c *Circuit) AddISource(name string, plus, minus NodeID, amps float64) *ISource {
	d := &ISource{name: name, plus: plus, minus: minus, I: amps}
	c.Add(d)
	return d
}

// AddMOSFET connects a MOSFET. For an n-channel device set Params.PMOS to
// false; the body is implicitly tied to the source (no body effect).
func (c *Circuit) AddMOSFET(name string, drain, gate, source NodeID, p MOSParams) *MOSFET {
	d := &MOSFET{name: name, d: drain, g: gate, s: source, P: p}
	c.Add(d)
	return d
}

// unknowns returns the MNA system size: non-ground nodes plus one branch
// current per voltage source.
func (c *Circuit) unknowns() int {
	return (c.NumNodes() - 1) + len(c.vsources)
}

// nodeVar maps a node to its MNA variable index, or -1 for ground.
func nodeVar(n NodeID) int { return int(n) - 1 }

// branchVar maps a voltage-source ordinal to its MNA variable index.
func (c *Circuit) branchVar(branch int) int { return (c.NumNodes() - 1) + branch }

// Validate performs basic sanity checks on the netlist.
func (c *Circuit) Validate() error {
	if len(c.devices) == 0 {
		return fmt.Errorf("spice: empty circuit")
	}
	seen := map[string]bool{}
	for _, d := range c.devices {
		if d.Name() == "" {
			return fmt.Errorf("spice: device with empty name")
		}
		if seen[d.Name()] {
			return fmt.Errorf("spice: duplicate device name %q", d.Name())
		}
		seen[d.Name()] = true
		for _, n := range d.Nodes() {
			if int(n) < 0 || int(n) >= c.NumNodes() {
				return fmt.Errorf("spice: device %q references unknown node %d", d.Name(), int(n))
			}
		}
	}
	return nil
}

// String renders a netlist summary for debugging.
func (c *Circuit) String() string {
	names := make([]string, 0, len(c.devices))
	for _, d := range c.devices {
		nodes := d.Nodes()
		ns := make([]string, len(nodes))
		for i, n := range nodes {
			ns[i] = c.NodeName(n)
		}
		names = append(names, fmt.Sprintf("%s(%v)", d.Name(), ns))
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += n + "\n"
	}
	return out
}
