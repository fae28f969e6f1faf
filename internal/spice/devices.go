package spice

import (
	"hybriddelay/internal/la"
	"hybriddelay/internal/waveform"
)

// IntegrationMethod selects the charge integration scheme.
type IntegrationMethod int

const (
	// Trapezoidal is second-order accurate; the default.
	Trapezoidal IntegrationMethod = iota
	// BackwardEuler is first-order, L-stable; used for the first step
	// after a breakpoint to damp trapezoidal ringing.
	BackwardEuler
)

// StampContext carries the state a device needs to stamp itself into the
// MNA system for one Newton iteration.
type StampContext struct {
	G   *la.Matrix // Jacobian / conductance matrix
	RHS []float64  // right-hand side (current) vector
	V   []float64  // current Newton iterate of the unknown vector

	Time   float64           // absolute time of the step being solved
	Dt     float64           // step size (0 during DC analysis)
	Method IntegrationMethod // integration scheme for this step
	DC     bool              // true during operating-point analysis

	circuit *Circuit

	// srcVals, when non-nil, holds every voltage source's signal value at
	// Time, indexed by branch ordinal. The solver fills it once per
	// Newton solve so that source signals (closures with binary searches
	// behind them) are not re-evaluated on every iteration. Signals are
	// pure functions of time, so the hoisted value is identical.
	srcVals []float64

	// capFresh is true on the first Newton iteration of a solve: cap
	// companion models recompute their (Dt, Method, state)-dependent
	// geq/ieq then and replay the cached values on later iterations,
	// which stamp at the same Dt/Method/state by construction.
	capFresh bool
}

// nodeV returns the node voltage in the current iterate (0 for ground).
func (ctx *StampContext) nodeV(n NodeID) float64 {
	i := nodeVar(n)
	if i < 0 {
		return 0
	}
	return ctx.V[i]
}

// addG accumulates a conductance between variables i and j (node indices
// already mapped; negative index = ground, ignored).
func (ctx *StampContext) addG(i, j int, g float64) {
	if i < 0 || j < 0 {
		return
	}
	ctx.G.Add(i, j, g)
}

// addRHS accumulates into the right-hand side.
func (ctx *StampContext) addRHS(i int, v float64) {
	if i < 0 {
		return
	}
	ctx.RHS[i] += v
}

// stampConductance stamps a two-terminal conductance g between nodes a, b.
func (ctx *StampContext) stampConductance(a, b NodeID, g float64) {
	ia, ib := nodeVar(a), nodeVar(b)
	ctx.addG(ia, ia, g)
	ctx.addG(ib, ib, g)
	ctx.addG(ia, ib, -g)
	ctx.addG(ib, ia, -g)
}

// stampCurrent stamps a constant current i flowing from node a to node b
// through the device (i.e. leaving a, entering b).
func (ctx *StampContext) stampCurrent(a, b NodeID, i float64) {
	ctx.addRHS(nodeVar(a), -i)
	ctx.addRHS(nodeVar(b), +i)
}

// Device is an element that can stamp itself into the MNA system.
type Device interface {
	Name() string
	Nodes() []NodeID
	// Stamp adds the device's linearised contribution for the current
	// Newton iterate.
	Stamp(ctx *StampContext)
}

// Stateful devices carry charge state across timesteps.
type Stateful interface {
	Device
	// Init establishes device state from a converged DC solution or
	// user-supplied initial conditions.
	Init(v []float64)
	// Commit updates internal state after a step has been accepted.
	Commit(ctx *StampContext)
}

// ---------------------------------------------------------------------
// Resistor

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	name string
	a, b NodeID
	R    float64
}

// Name returns the device name.
func (r *Resistor) Name() string { return r.name }

// Nodes returns the connected nodes.
func (r *Resistor) Nodes() []NodeID { return []NodeID{r.a, r.b} }

// Stamp implements Device.
func (r *Resistor) Stamp(ctx *StampContext) {
	ctx.stampConductance(r.a, r.b, 1/r.R)
}

// ---------------------------------------------------------------------
// Capacitor

// capState integrates a single capacitance; shared by Capacitor and the
// MOSFET's parasitic capacitances.
type capState struct {
	vPrev float64 // branch voltage at the last accepted step
	iPrev float64 // branch current at the last accepted step

	// Companion-model cache: geq and ieq depend only on (c, Dt, Method)
	// and the committed state, all of which are fixed for the duration
	// of one Newton solve. The solver marks the first iteration of every
	// solve (StampContext.capFresh) and the divisions are done once;
	// later iterations re-accumulate the identical cached values, so the
	// matrix sums are bit-for-bit unchanged.
	geq float64
	ieq float64
}

// stampIdx adds the companion model of a linear capacitance c across
// the node variables (ia, ib) (already mapped; negative = ground); the
// branch current implied by the iterate is geq*v - ieq. It addresses
// the matrix rows directly rather than going through the generic
// addG/stampConductance helpers: cap stamps are the bulk of the Newton
// inner loop's scattered accumulations, and hoisting the row base and
// ground checks is worth ~a third of the stamping time. Per-cell
// accumulation order matches the helper sequence exactly — only writes
// to distinct cells (independent float64 sums) are reordered.
func (s *capState) stampIdx(ctx *StampContext, ia, ib int, c float64) {
	if ctx.DC {
		return // open circuit at DC
	}
	geq, ieq := s.companion(ctx, c)
	data, nc := ctx.G.Data, ctx.G.Cols
	rhs := ctx.RHS
	if ia >= 0 {
		row := data[ia*nc : ia*nc+nc]
		row[ia] += geq
		if ib >= 0 {
			row[ib] -= geq
		}
		rhs[ia] += ieq
	}
	if ib >= 0 {
		row := data[ib*nc : ib*nc+nc]
		row[ib] += geq
		if ia >= 0 {
			row[ia] -= geq
		}
		rhs[ib] -= ieq
	}
}

// companion returns the companion model (geq, ieq) of capacitance c
// for the context's step, recomputing the cache on the first iteration
// of a solve (ctx.capFresh).
func (s *capState) companion(ctx *StampContext, c float64) (geq, ieq float64) {
	if ctx.capFresh {
		switch ctx.Method {
		case BackwardEuler:
			s.geq = c / ctx.Dt
			s.ieq = s.geq * s.vPrev
		default: // Trapezoidal
			s.geq = 2 * c / ctx.Dt
			s.ieq = s.geq*s.vPrev + s.iPrev
		}
	}
	return s.geq, s.ieq
}

// stampRHSIdx is the right-hand-side half of stampIdx: the same
// companion update and the same RHS accumulations in the same order,
// without the matrix entries. The sparse solver uses it when it keeps
// the previous solve's linear base matrix (geq depends only on c, Dt
// and Method) and restamps only the equivalent currents.
func (s *capState) stampRHSIdx(ctx *StampContext, ia, ib int, c float64) {
	if ctx.DC {
		return
	}
	_, ieq := s.companion(ctx, c)
	if ia >= 0 {
		ctx.RHS[ia] += ieq
	}
	if ib >= 0 {
		ctx.RHS[ib] -= ieq
	}
}

// commit records the accepted branch voltage/current. A transient
// commit always follows a converged Newton solve at the same (Dt,
// Method, state), so the cached companion values from stampIdx are
// exactly what a recomputation would produce.
func (s *capState) commit(ctx *StampContext, a, b NodeID) {
	v := ctx.nodeV(a) - ctx.nodeV(b)
	if ctx.DC || ctx.Dt == 0 {
		s.vPrev, s.iPrev = v, 0
		return
	}
	s.iPrev = s.geq*v - s.ieq
	s.vPrev = v
}

// init sets the stored voltage and zeroes the current.
func (s *capState) init(v float64) { s.vPrev, s.iPrev = v, 0 }

// Capacitor is a linear two-terminal capacitor.
type Capacitor struct {
	name  string
	a, b  NodeID
	C     float64
	state capState
}

// Name returns the device name.
func (c *Capacitor) Name() string { return c.name }

// Nodes returns the connected nodes.
func (c *Capacitor) Nodes() []NodeID { return []NodeID{c.a, c.b} }

// Stamp implements Device.
func (c *Capacitor) Stamp(ctx *StampContext) {
	c.state.stampIdx(ctx, nodeVar(c.a), nodeVar(c.b), c.C)
}

// stampRHS restamps only the capacitor's equivalent current.
func (c *Capacitor) stampRHS(ctx *StampContext) {
	c.state.stampRHSIdx(ctx, nodeVar(c.a), nodeVar(c.b), c.C)
}

// Init implements Stateful.
func (c *Capacitor) Init(v []float64) {
	va, vb := 0.0, 0.0
	if i := nodeVar(c.a); i >= 0 {
		va = v[i]
	}
	if i := nodeVar(c.b); i >= 0 {
		vb = v[i]
	}
	c.state.init(va - vb)
}

// Commit implements Stateful.
func (c *Capacitor) Commit(ctx *StampContext) { c.state.commit(ctx, c.a, c.b) }

// ---------------------------------------------------------------------
// Voltage source

// VSource is an ideal voltage source driven by a waveform.Signal. It
// contributes one branch-current unknown to the MNA system.
type VSource struct {
	name        string
	plus, minus NodeID
	Signal      waveform.Signal
	branch      int // ordinal among voltage sources, set by Circuit.Add
}

// Name returns the device name.
func (v *VSource) Name() string { return v.name }

// Nodes returns the connected nodes.
func (v *VSource) Nodes() []NodeID { return []NodeID{v.plus, v.minus} }

// Stamp implements Device.
func (v *VSource) Stamp(ctx *StampContext) {
	ib := ctx.circuit.branchVar(v.branch)
	ip, im := nodeVar(v.plus), nodeVar(v.minus)
	// KCL rows: branch current leaves plus, enters minus.
	ctx.addG(ip, ib, 1)
	ctx.addG(im, ib, -1)
	// Branch row: V(plus) - V(minus) = signal(t).
	ctx.addG(ib, ip, 1)
	ctx.addG(ib, im, -1)
	v.stampRHS(ctx)
}

// stampRHS stamps the branch equation's right-hand side, signal(t).
func (v *VSource) stampRHS(ctx *StampContext) {
	ib := ctx.circuit.branchVar(v.branch)
	if ctx.srcVals != nil {
		ctx.addRHS(ib, ctx.srcVals[v.branch])
	} else {
		ctx.addRHS(ib, v.Signal(ctx.Time))
	}
}

// Current returns the branch current of the source in a solution vector.
func (v *VSource) Current(c *Circuit, sol []float64) float64 {
	return sol[c.branchVar(v.branch)]
}

// ---------------------------------------------------------------------
// Current source

// ISource is an ideal constant current source; I flows into the plus
// terminal through the external circuit.
type ISource struct {
	name        string
	plus, minus NodeID
	I           float64
}

// Name returns the device name.
func (s *ISource) Name() string { return s.name }

// Nodes returns the connected nodes.
func (s *ISource) Nodes() []NodeID { return []NodeID{s.plus, s.minus} }

// Stamp implements Device.
func (s *ISource) Stamp(ctx *StampContext) {
	ctx.stampCurrent(s.minus, s.plus, s.I)
}

// stampRHS is Stamp: a current source has no matrix entries.
func (s *ISource) stampRHS(ctx *StampContext) { s.Stamp(ctx) }
