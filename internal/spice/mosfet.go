package spice

// MOSParams parameterises the square-law MOSFET model. The model is a
// level-1 Shichman–Hodges device with channel-length modulation and fixed
// (linear) gate–source, gate–drain and drain–bulk capacitances. The fixed
// gate capacitances are essential here: the Miller coupling from the
// inputs onto the internal node N and the output O is what produces the
// MIS slow-down for rising NOR outputs (paper §II), so the golden
// reference must include them.
type MOSParams struct {
	PMOS   bool    // channel polarity
	VT0    float64 // threshold voltage magnitude [V]
	K      float64 // transconductance K = mu*Cox*W/L [A/V^2]
	Lambda float64 // channel-length modulation [1/V]
	Cgs    float64 // gate-source capacitance [F]
	Cgd    float64 // gate-drain capacitance [F]
	Cdb    float64 // drain-bulk capacitance to ground [F]
	Gmin   float64 // leakage conductance drain-source for convergence [S]
}

// MOSFET is a three-terminal transistor (bulk tied to source implicitly,
// no body effect).
type MOSFET struct {
	name    string
	d, g, s NodeID
	P       MOSParams

	cgs, cgd, cdb capState
}

// Name returns the device name.
func (m *MOSFET) Name() string { return m.name }

// Nodes returns drain, gate, source.
func (m *MOSFET) Nodes() []NodeID { return []NodeID{m.d, m.g, m.s} }

// idsLaw evaluates the square-law channel current for an nMOS-oriented
// device with vds >= 0, plus its partial derivatives with respect to vgs
// and vds. The model is C1-continuous across the cutoff boundary
// (vgs = VT0) and the triode/saturation boundary (vds = vgs - VT0), which
// keeps the Newton iteration stable.
func idsLaw(p MOSParams, vgs, vds float64) (i, gm, gds float64) {
	vov := vgs - p.VT0
	if vov <= 0 {
		return 0, 0, 0
	}
	lam := 1 + p.Lambda*vds
	if vds < vov {
		// Triode region.
		q := vov*vds - 0.5*vds*vds
		i = p.K * q * lam
		gm = p.K * vds * lam
		gds = p.K*(vov-vds)*lam + p.K*q*p.Lambda
	} else {
		// Saturation.
		q := 0.5 * vov * vov
		i = p.K * q * lam
		gm = p.K * vov * lam
		gds = p.K * q * p.Lambda
	}
	return i, gm, gds
}

// Eval returns the static channel current I flowing into the physical
// drain terminal for node voltages (vd, vg, vs), along with the partial
// derivatives dI/dvd, dI/dvg, dI/dvs. Polarity (pMOS) and reverse biasing
// (vds < 0) are handled by symmetry mappings, so the returned quantities
// are exact for every quadrant.
func (m *MOSFET) Eval(vd, vg, vs float64) (i, gd, gg, gs float64) {
	// Map pMOS onto nMOS by negating all terminal voltages. Under the
	// mapping w = -v the physical current flips sign, while dI/dv =
	// sign(dI_w/dw)*sign(dw/dv) leaves the conductances unchanged.
	sign := 1.0
	wd, wg, ws := vd, vg, vs
	if m.P.PMOS {
		wd, wg, ws = -vd, -vg, -vs
		sign = -1
	}
	// The square-law channel is symmetric: for wd < ws the device conducts
	// with the terminal roles exchanged.
	swapped := false
	ed, es := wd, ws
	if ed < es {
		ed, es = es, ed
		swapped = true
	}
	cur, gm, gds := idsLaw(m.P, wg-es, ed-es)
	// Partials of the effective current with respect to the effective
	// terminal voltages.
	dDeff := gds
	dG := gm
	dSeff := -gm - gds
	// Current into the *physical* drain terminal in the w-frame, and its
	// partials with respect to (wd, wg, ws).
	var iw, dwd, dwg, dws float64
	if !swapped {
		iw, dwd, dwg, dws = cur, dDeff, dG, dSeff
	} else {
		iw, dwd, dwg, dws = -cur, -dSeff, -dG, -dDeff
	}
	return sign * iw, dwd, dwg, dws
}

// Stamp implements Device. The channel current is linearised around the
// iterate,
//
//	I(v) ~= I0 + Gd*(vd-vd0) + Gg*(vg-vg0) + Gs*(vs-vs0),
//
// stamping the partials into the Jacobian and the affine remainder as an
// equivalent current source.
// The stamp is split into StampNonlinear (the iterate-dependent channel
// linearisation) and StampLinear (the iterate-independent leakage and
// parasitic capacitances), called in exactly the historical accumulation
// order so the dense golden path stays bit-identical. The sparse solver
// calls the two halves separately: the linear half goes into a base
// matrix kept across Newton solves, and only the channel is re-stamped
// per iteration (stampChannel, into packed values).
func (m *MOSFET) Stamp(ctx *StampContext) {
	m.StampNonlinear(ctx)
	m.StampLinear(ctx)
}

// channel linearises the channel current at the iterate V: the
// partials (gd, gg, gs) and the affine remainder ieq, a current leaving
// the drain and entering the source.
func (m *MOSFET) channel(V []float64) (gd, gg, gs, ieq float64) {
	var vd, vg, vs float64
	if i := nodeVar(m.d); i >= 0 {
		vd = V[i]
	}
	if i := nodeVar(m.g); i >= 0 {
		vg = V[i]
	}
	if i := nodeVar(m.s); i >= 0 {
		vs = V[i]
	}
	i0, gd, gg, gs := m.Eval(vd, vg, vs)
	return gd, gg, gs, i0 - gd*vd - gg*vg - gs*vs
}

// StampNonlinear stamps only the channel linearisation — the part of
// the device that depends on the Newton iterate.
// The body addresses the Jacobian rows directly rather than through the
// generic addG/stampConductance helpers: a transistor stamp is the
// densest accumulation in the Newton inner loop, and hoisting the row
// slices (and the ground checks) once per terminal is worth ~a third of
// the stamping time. Values and per-cell accumulation order are exactly
// the helper sequence's — only writes to distinct cells, which are
// independent float64 sums, are emitted in a different order.
func (m *MOSFET) StampNonlinear(ctx *StampContext) {
	iD, iG, iS := nodeVar(m.d), nodeVar(m.g), nodeVar(m.s)
	gd, gg, gs, ieq := m.channel(ctx.V)

	data, nc := ctx.G.Data, ctx.G.Cols
	var rowD, rowS []float64
	if iD >= 0 {
		rowD = data[iD*nc : iD*nc+nc]
	}
	if iS >= 0 {
		rowS = data[iS*nc : iS*nc+nc]
	}
	// KCL at drain: +I leaves the node into the device.
	if rowD != nil {
		rowD[iD] += gd
		if iG >= 0 {
			rowD[iG] += gg
		}
		if iS >= 0 {
			rowD[iS] += gs
		}
	}
	// KCL at source: -I.
	if rowS != nil {
		if iD >= 0 {
			rowS[iD] -= gd
		}
		if iG >= 0 {
			rowS[iG] -= gg
		}
		rowS[iS] -= gs
	}
	// Affine remainder as a current leaving the drain, entering the source.
	rhs := ctx.RHS
	if iD >= 0 {
		rhs[iD] -= ieq
	}
	if iS >= 0 {
		rhs[iS] += ieq
	}
}

// channelSlots locates one MOSFET's channel stamp in the sparse
// solver's packed values: the Jacobian slots StampNonlinear accumulates
// into, in its order (drain row: drain, gate, source columns; then the
// source row), and the drain and source RHS rows. -1 marks an entry
// dropped because a terminal is ground.
type channelSlots struct {
	jac  [6]int32
	d, s int32
}

// stampChannel is StampNonlinear over packed values: the same partials
// accumulated in the same order into the precomputed slots, so every
// structural position receives bit-identical sums.
//
//hybrid:noalloc
func (m *MOSFET) stampChannel(vals, rhs, V []float64, sl *channelSlots) {
	gd, gg, gs, ieq := m.channel(V)
	j := &sl.jac
	if j[0] >= 0 {
		vals[j[0]] += gd
	}
	if j[1] >= 0 {
		vals[j[1]] += gg
	}
	if j[2] >= 0 {
		vals[j[2]] += gs
	}
	if j[3] >= 0 {
		vals[j[3]] -= gd
	}
	if j[4] >= 0 {
		vals[j[4]] -= gg
	}
	if j[5] >= 0 {
		vals[j[5]] -= gs
	}
	if sl.d >= 0 {
		rhs[sl.d] -= ieq
	}
	if sl.s >= 0 {
		rhs[sl.s] += ieq
	}
}

// StampLinear stamps the iterate-independent part of the device: the
// convergence leakage conductance and the parasitic capacitances'
// companion models. Within one Newton solve these values are constant
// (companion values depend only on Dt, Method and committed state), so
// the sparse solver stamps them once per solve into a frozen base.
func (m *MOSFET) StampLinear(ctx *StampContext) {
	iD, iG, iS := nodeVar(m.d), nodeVar(m.g), nodeVar(m.s)

	// Leakage conductance for convergence robustness.
	if g := m.P.Gmin; g > 0 {
		data, nc := ctx.G.Data, ctx.G.Cols
		if iD >= 0 {
			rowD := data[iD*nc : iD*nc+nc]
			rowD[iD] += g
			if iS >= 0 {
				rowD[iS] -= g
			}
		}
		if iS >= 0 {
			rowS := data[iS*nc : iS*nc+nc]
			rowS[iS] += g
			if iD >= 0 {
				rowS[iD] -= g
			}
		}
	}

	// Parasitic capacitances.
	m.cgs.stampIdx(ctx, iG, iS, m.P.Cgs)
	m.cgd.stampIdx(ctx, iG, iD, m.P.Cgd)
	m.cdb.stampIdx(ctx, iD, -1, m.P.Cdb)
}

// stampRHS restamps only the right-hand side of StampLinear: the
// parasitic capacitances' equivalent currents, in the same order.
func (m *MOSFET) stampRHS(ctx *StampContext) {
	iD, iG, iS := nodeVar(m.d), nodeVar(m.g), nodeVar(m.s)
	m.cgs.stampRHSIdx(ctx, iG, iS, m.P.Cgs)
	m.cgd.stampRHSIdx(ctx, iG, iD, m.P.Cgd)
	m.cdb.stampRHSIdx(ctx, iD, -1, m.P.Cdb)
}

// Init implements Stateful.
func (m *MOSFET) Init(v []float64) {
	get := func(n NodeID) float64 {
		if i := nodeVar(n); i >= 0 {
			return v[i]
		}
		return 0
	}
	m.cgs.init(get(m.g) - get(m.s))
	m.cgd.init(get(m.g) - get(m.d))
	m.cdb.init(get(m.d))
}

// Commit implements Stateful.
func (m *MOSFET) Commit(ctx *StampContext) {
	m.cgs.commit(ctx, m.g, m.s)
	m.cgd.commit(ctx, m.g, m.d)
	m.cdb.commit(ctx, m.d, Ground)
}

// DrainCurrent returns the static channel current flowing into the drain
// for the given solved node voltages (used in diagnostics and tests).
func (m *MOSFET) DrainCurrent(c *Circuit, sol []float64) float64 {
	get := func(n NodeID) float64 {
		if i := nodeVar(n); i >= 0 {
			return sol[i]
		}
		return 0
	}
	i, _, _, _ := m.Eval(get(m.d), get(m.g), get(m.s))
	return i
}
