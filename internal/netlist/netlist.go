// Package netlist adds the circuit level to the evaluation pipeline: a
// declarative description of multi-gate combinational circuits built
// from registered gates (internal/gate) and wired by named nets, which
// elaborates down both sides of the accuracy study. On the analog side
// the instances are flattened into one transistor-level MNA circuit
// (Bench) producing a composed golden trace per recorded net; on the
// digital side the same description drives a topological dataflow walk
// over offline per-instance delay models (Walk, used by the
// circuit-level scoring in internal/eval).
//
// A netlist is validated structurally — known gates, arity-matched
// connections, single-driver nets, no undriven nets, no combinational
// cycles (established by topological ordering) — and round-trips
// through a small JSON format (Parse / WriteJSON, the `hybridlab
// circuit -netlist` file format).
package netlist

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/trace"
)

// Instance is one gate instantiation: a registered gate wired to named
// nets. The same net may feed several instance inputs (fanout) and an
// instance may list one net on several of its own pins (tied inputs —
// e.g. a NOR2 with both pins on one net acts as an inverter).
type Instance struct {
	// Name is the unique instance identifier (also the prefix of the
	// instance's internal analog nodes).
	Name string `json:"name"`
	// Gate is the registry name ("nor2", "nand2", "nor3"); empty
	// selects the default gate.
	Gate string `json:"gate"`
	// Inputs lists the nets on the gate's input pins, in pin order.
	Inputs []string `json:"inputs"`
	// Output is the net driven by the gate.
	Output string `json:"output"`
}

// Netlist is a combinational multi-gate circuit description.
type Netlist struct {
	// Name labels the circuit in reports and CLI listings.
	Name string `json:"name,omitempty"`
	// Inputs lists the primary input nets in stimulus order: the i-th
	// generated input trace drives the i-th net.
	Inputs []string `json:"inputs"`
	// Outputs lists the recorded nets — the nets scored against the
	// composed golden. Empty defaults to every instance output, in
	// instance order. Only instance-driven nets may be listed.
	Outputs []string `json:"outputs,omitempty"`
	// Instances lists the gate instantiations.
	Instances []Instance `json:"instances"`
}

// gateOf resolves an instance's gate against the registry, reusing the
// registry's uniform unknown-gate error.
func gateOf(inst Instance) (gate.Gate, error) {
	g, err := gate.Find(inst.Gate)
	if err != nil {
		return nil, fmt.Errorf("netlist: instance %q: %w", inst.Name, err)
	}
	return g, nil
}

// Validate checks the structural invariants: non-empty unique names,
// registered gates with matching arities, at most one driver per net,
// no driven primary inputs, no undriven instance inputs, recorded nets
// that exist and are instance-driven, and an acyclic topology.
func (n *Netlist) Validate() error {
	if len(n.Inputs) == 0 {
		return fmt.Errorf("netlist %s: no primary inputs", n.label())
	}
	if len(n.Instances) == 0 {
		return fmt.Errorf("netlist %s: no instances", n.label())
	}
	primary := map[string]bool{}
	for _, name := range n.Inputs {
		if name == "" {
			return fmt.Errorf("netlist %s: empty primary input name", n.label())
		}
		if primary[name] {
			return fmt.Errorf("netlist %s: primary input %q listed twice", n.label(), name)
		}
		primary[name] = true
	}
	seenInst := map[string]bool{}
	driver := map[string]string{} // net -> driving instance
	for _, inst := range n.Instances {
		if inst.Name == "" {
			return fmt.Errorf("netlist %s: instance with empty name", n.label())
		}
		if seenInst[inst.Name] {
			return fmt.Errorf("netlist %s: duplicate instance name %q", n.label(), inst.Name)
		}
		seenInst[inst.Name] = true
		g, err := gateOf(inst)
		if err != nil {
			return err
		}
		if len(inst.Inputs) != g.Arity() {
			return fmt.Errorf("netlist %s: instance %q: gate %s has %d inputs, got %d",
				n.label(), inst.Name, g.Name(), g.Arity(), len(inst.Inputs))
		}
		for _, net := range inst.Inputs {
			if net == "" {
				return fmt.Errorf("netlist %s: instance %q: empty input net name", n.label(), inst.Name)
			}
		}
		if inst.Output == "" {
			return fmt.Errorf("netlist %s: instance %q: empty output net name", n.label(), inst.Name)
		}
		if primary[inst.Output] {
			return fmt.Errorf("netlist %s: instance %q drives primary input net %q",
				n.label(), inst.Name, inst.Output)
		}
		if prev, ok := driver[inst.Output]; ok {
			return fmt.Errorf("netlist %s: net %q driven by both %q and %q",
				n.label(), inst.Output, prev, inst.Name)
		}
		driver[inst.Output] = inst.Name
	}
	for _, inst := range n.Instances {
		for _, net := range inst.Inputs {
			if !primary[net] && driver[net] == "" {
				return fmt.Errorf("netlist %s: instance %q input net %q is undriven",
					n.label(), inst.Name, net)
			}
		}
	}
	seenOut := map[string]bool{}
	for _, net := range n.Outputs {
		if driver[net] == "" {
			return fmt.Errorf("netlist %s: output net %q is not driven by any instance", n.label(), net)
		}
		if seenOut[net] {
			return fmt.Errorf("netlist %s: output net %q listed twice", n.label(), net)
		}
		seenOut[net] = true
	}
	if _, err := n.Order(); err != nil {
		return err
	}
	return nil
}

// label names the netlist in error messages.
func (n *Netlist) label() string {
	if n.Name != "" {
		return fmt.Sprintf("%q", n.Name)
	}
	return "(unnamed)"
}

// Order returns a topological ordering of the instance indices (inputs
// before consumers) or an error naming the instances on a combinational
// cycle. Among simultaneously ready instances declaration order wins,
// so the ordering is deterministic.
func (n *Netlist) Order() ([]int, error) {
	ready := map[string]bool{}
	for _, name := range n.Inputs {
		ready[name] = true
	}
	order := make([]int, 0, len(n.Instances))
	placed := make([]bool, len(n.Instances))
	for len(order) < len(n.Instances) {
		progressed := false
		for i, inst := range n.Instances {
			if placed[i] {
				continue
			}
			ok := true
			for _, net := range inst.Inputs {
				if !ready[net] {
					ok = false
					break
				}
			}
			if ok {
				placed[i] = true
				ready[inst.Output] = true
				order = append(order, i)
				progressed = true
			}
		}
		if !progressed {
			var stuck []string
			for i, inst := range n.Instances {
				if !placed[i] {
					stuck = append(stuck, inst.Name)
				}
			}
			return nil, fmt.Errorf("netlist %s: combinational cycle through instances %s",
				n.label(), strings.Join(stuck, ", "))
		}
	}
	return order, nil
}

// Recorded returns the nets scored against the composed golden: the
// explicit Outputs, or every instance output in instance order.
func (n *Netlist) Recorded() []string {
	if len(n.Outputs) > 0 {
		return append([]string(nil), n.Outputs...)
	}
	out := make([]string, 0, len(n.Instances))
	for _, inst := range n.Instances {
		out = append(out, inst.Output)
	}
	return out
}

// InitialValues returns the settled logical value of every net when all
// primary inputs are low (the starting state of every golden run): the
// zero-delay logic values propagated in topological order.
func (n *Netlist) InitialValues() (map[string]bool, error) {
	order, err := n.Order()
	if err != nil {
		return nil, err
	}
	vals := map[string]bool{}
	for _, name := range n.Inputs {
		vals[name] = false
	}
	for _, i := range order {
		inst := n.Instances[i]
		g, err := gateOf(inst)
		if err != nil {
			return nil, err
		}
		in := make([]bool, len(inst.Inputs))
		for k, net := range inst.Inputs {
			in[k] = vals[net]
		}
		vals[inst.Output] = g.Logic(in)
	}
	return vals, nil
}

// ContentKey renders the netlist's structure as a deterministic string
// for memoization: the primary inputs (whose order fixes the stimulus
// assignment), the recorded nets and every instance connection with its
// resolved gate name, in declaration order. The circuit Name is
// deliberately excluded — renaming a circuit must not invalidate cached
// golden traces.
func (n *Netlist) ContentKey() string {
	var sb strings.Builder
	sb.WriteString("v1|in=")
	sb.WriteString(strings.Join(n.Inputs, ","))
	sb.WriteString("|rec=")
	sb.WriteString(strings.Join(n.Recorded(), ","))
	for _, inst := range n.Instances {
		gname := inst.Gate
		if g, err := gateOf(inst); err == nil {
			gname = g.Name()
		}
		fmt.Fprintf(&sb, "|%s=%s(%s)->%s", inst.Name, gname, strings.Join(inst.Inputs, ","), inst.Output)
	}
	return sb.String()
}

// Walk runs the netlist as a dataflow over digital traces: apply is
// called once per instance in topological order with the instance's
// input traces, and its returned trace becomes the instance's output
// net. inputs drives the primary input nets in Netlist.Inputs order.
// The returned map holds every net's trace. This is how the accuracy
// pipeline elaborates a netlist into each offline delay model.
func (n *Netlist) Walk(inputs []trace.Trace,
	apply func(inst Instance, g gate.Gate, in []trace.Trace) (trace.Trace, error)) (map[string]trace.Trace, error) {
	if len(inputs) != len(n.Inputs) {
		return nil, fmt.Errorf("netlist %s: %d primary inputs, got %d traces", n.label(), len(n.Inputs), len(inputs))
	}
	order, err := n.Order()
	if err != nil {
		return nil, err
	}
	nets := make(map[string]trace.Trace, len(n.Inputs)+len(n.Instances))
	for i, name := range n.Inputs {
		nets[name] = inputs[i]
	}
	for _, i := range order {
		inst := n.Instances[i]
		g, err := gateOf(inst)
		if err != nil {
			return nil, err
		}
		in := make([]trace.Trace, len(inst.Inputs))
		for k, net := range inst.Inputs {
			in[k] = nets[net]
		}
		out, err := apply(inst, g, in)
		if err != nil {
			return nil, fmt.Errorf("netlist %s: instance %q: %w", n.label(), inst.Name, err)
		}
		nets[inst.Output] = out
	}
	return nets, nil
}

// Parse decodes and validates the JSON netlist format:
//
//	{
//	  "name": "nor-invchain",
//	  "inputs": ["a", "b"],
//	  "outputs": ["y0", "y3"],
//	  "instances": [
//	    {"name": "nor",  "gate": "nor2", "inputs": ["a", "b"],   "output": "y0"},
//	    {"name": "inv1", "gate": "nor2", "inputs": ["y0", "y0"], "output": "y1"}
//	  ]
//	}
func Parse(r io.Reader) (*Netlist, error) {
	var n Netlist
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("netlist: parsing: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// WriteJSON encodes the netlist in the Parse format (indented,
// deterministic).
func (n *Netlist) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}
