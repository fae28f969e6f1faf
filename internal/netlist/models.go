package netlist

import (
	"fmt"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/nor"
)

// ModelSet maps resolved registry gate names to their parametrized
// Fig. 7 model sets — one entry per distinct gate a netlist uses. It
// feeds the offline circuit scoring (internal/eval), which applies each
// instance's model in topological order.
type ModelSet map[string]gate.Models

// For returns the model set of an instance's (resolved) gate.
func (ms ModelSet) For(inst Instance) (gate.Models, error) {
	g, err := gateOf(inst)
	if err != nil {
		return gate.Models{}, err
	}
	m, ok := ms[g.Name()]
	if !ok {
		return gate.Models{}, fmt.Errorf("netlist: no models for gate %s (instance %q)", g.Name(), inst.Name)
	}
	return m, nil
}

// BuildModelSet measures and parametrizes every distinct gate the
// netlist uses at the given operating point: one bench construction,
// characteristic measurement and model fit per gate (the expensive
// analog step — share the result across evaluations of the same
// operating point). expDMin is the exp channel's empirical pure delay.
func BuildModelSet(nl *Netlist, p nor.Params, expDMin float64) (ModelSet, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	ms := ModelSet{}
	for _, inst := range nl.Instances {
		g, err := gateOf(inst)
		if err != nil {
			return nil, err
		}
		if _, ok := ms[g.Name()]; ok {
			continue
		}
		bench, err := g.NewBench(p)
		if err != nil {
			return nil, fmt.Errorf("netlist %s: gate %s: bench: %w", nl.label(), g.Name(), err)
		}
		meas, err := bench.Measure()
		if err != nil {
			return nil, fmt.Errorf("netlist %s: gate %s: measure: %w", nl.label(), g.Name(), err)
		}
		m, err := g.BuildModels(meas, p.Supply, expDMin)
		if err != nil {
			return nil, fmt.Errorf("netlist %s: gate %s: models: %w", nl.label(), g.Name(), err)
		}
		ms[g.Name()] = m
	}
	return ms, nil
}
