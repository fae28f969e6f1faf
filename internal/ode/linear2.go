// Package ode solves the constant-coefficient linear ODE systems
//
//	V'(t) = A V(t) + g
//
// that govern the hybrid NOR model's four modes (paper §III). For 2x2
// systems the solution is computed in closed form from the
// eigen-decomposition of A; degenerate cases (singular A, repeated
// eigenvalues) are handled explicitly because they occur in practice:
// mode (1,1) isolates node N, which makes A singular.
//
// A numeric RK4 integrator is included for cross-validating the analytic
// path in tests.
package ode

import (
	"fmt"
	"math"

	"hybriddelay/internal/la"
)

// Linear2 is a 2-dimensional linear time-invariant system V' = A V + g.
type Linear2 struct {
	A la.Mat2
	G la.Vec2
}

// Solution2 is a closed-form solution of a Linear2 initial-value problem.
// It evaluates V(t) for t >= 0 with V(0) = the initial value supplied to
// Solve.
type Solution2 struct {
	// kind discriminates the evaluation formula.
	kind solKind

	// Diagonalizable path: V(t) = vp + c1*v1*exp(l1 t) + c2*v2*exp(l2 t).
	l1, l2 float64
	v1, v2 la.Vec2
	c1, c2 float64
	vp     la.Vec2 // particular (steady-state) solution; zero for kindSingular

	// sys is the system itself, kept for Derivative.
	sys Linear2

	// Defective path: V(t) = vp + e^{l t}(w + N w t) with w = V0 - vp,
	// both vectors formed once in Solve.
	w, nw la.Vec2
}

type solKind int

const (
	kindDiagonal  solKind = iota // A nonsingular, two eigenvectors
	kindDefective                // repeated eigenvalue, Jordan block
	kindSingular                 // A singular: integrate g through the propagator
)

// Solve constructs the closed-form solution with initial value v0 at t=0.
func (s Linear2) Solve(v0 la.Vec2) (*Solution2, error) {
	eig, err := la.EigenDecompose2(s.A)
	if err != nil {
		return nil, err
	}
	det := s.A.Det()
	// Singular A (one or both eigenvalues zero): the steady state does not
	// exist in general. Handle via the propagator formula
	//   V(t) = e^{At} v0 + Int_0^t e^{A(t-s)} g ds,
	// which for our circuits reduces to per-eigenvector integration.
	if math.Abs(det) <= 1e-30*math.Max(s.A.Trace()*s.A.Trace(), 1e-300) || det == 0 {
		return solveSingular(s, v0, eig)
	}
	vp, err := s.A.Solve(la.Vec2{X: -s.G.X, Y: -s.G.Y})
	if err != nil {
		return solveSingular(s, v0, eig)
	}
	w := v0.Sub(vp)
	if eig.Defective {
		l := eig.Lambda1
		n := s.A.AddMat(la.Mat2{A11: -l, A22: -l})
		return &Solution2{kind: kindDefective, l1: l, vp: vp, w: w, nw: n.MulVec(w), sys: s}, nil
	}
	// Expand w in the eigenbasis: w = c1 v1 + c2 v2.
	p := la.Mat2{A11: eig.V1.X, A12: eig.V2.X, A21: eig.V1.Y, A22: eig.V2.Y}
	c, err := p.Solve(w)
	if err != nil {
		return nil, fmt.Errorf("ode: eigenvector matrix singular: %w", err)
	}
	return &Solution2{
		kind: kindDiagonal,
		l1:   eig.Lambda1, l2: eig.Lambda2,
		v1: eig.V1, v2: eig.V2,
		c1: c.X, c2: c.Y,
		vp: vp, sys: s,
	}, nil
}

// solveSingular handles singular A. In the hybrid model this is mode
// (1,1): V_N' = 0 and V_O decays exponentially, with g = 0. We support the
// general case with g constant by splitting along eigenvectors: for a zero
// eigenvalue the response grows linearly (c + g_par*t), for a nonzero one
// it is the usual exponential relaxation.
func solveSingular(s Linear2, v0 la.Vec2, eig la.Eigen2) (*Solution2, error) {
	if eig.Defective {
		return nil, fmt.Errorf("ode: defective singular system not supported (A=%+v)", s.A)
	}
	p := la.Mat2{A11: eig.V1.X, A12: eig.V2.X, A21: eig.V1.Y, A22: eig.V2.Y}
	if p.Det() == 0 {
		return nil, fmt.Errorf("ode: eigenvector matrix singular for A=%+v", s.A)
	}
	c0, err := p.Solve(v0)
	if err != nil {
		return nil, err
	}
	gc, err := p.Solve(s.G)
	if err != nil {
		return nil, err
	}
	return &Solution2{
		kind: kindSingular,
		l1:   eig.Lambda1, l2: eig.Lambda2,
		v1: eig.V1, v2: eig.V2,
		c1: c0.X, c2: c0.Y,
		vp:  la.Vec2{X: gc.X, Y: gc.Y}, // per-mode forcing coefficients
		sys: s,
	}, nil
}

// At evaluates V(t).
func (sol *Solution2) At(t float64) la.Vec2 {
	switch sol.kind {
	case kindDiagonal:
		e1 := math.Exp(sol.l1 * t)
		e2 := math.Exp(sol.l2 * t)
		return sol.vp.
			Add(sol.v1.Scale(sol.c1 * e1)).
			Add(sol.v2.Scale(sol.c2 * e2))
	case kindDefective:
		// V(t) = vp + e^{l t} (I + N t)(v0 - vp).
		el := math.Exp(sol.l1 * t)
		return sol.vp.Add(sol.w.Add(sol.nw.Scale(t)).Scale(el))
	case kindSingular:
		// Per-eigenmode: x_i(t) = c_i e^{l_i t} + g_i * phi(l_i, t), where
		// phi(l, t) = (e^{l t} - 1)/l, extended continuously to phi(0,t)=t.
		x1 := sol.c1*math.Exp(sol.l1*t) + sol.vp.X*phi(sol.l1, t)
		x2 := sol.c2*math.Exp(sol.l2*t) + sol.vp.Y*phi(sol.l2, t)
		return sol.v1.Scale(x1).Add(sol.v2.Scale(x2))
	}
	panic("ode: unknown solution kind")
}

// Derivative evaluates V'(t) = A V(t) + g.
func (sol *Solution2) Derivative(t float64) la.Vec2 {
	v := sol.At(t)
	return sol.sys.A.MulVec(v).Add(sol.sys.G)
}

// phi computes (e^{l t} - 1)/l with a series fallback near l*t == 0.
func phi(l, t float64) float64 {
	x := l * t
	if math.Abs(x) < 1e-6 {
		// (e^x - 1)/l = t (1 + x/2 + x^2/6 + ...)
		return t * (1 + x/2 + x*x/6)
	}
	return (math.Exp(x) - 1) / l
}

// SlowestTimeConstant returns the magnitude of the slowest stable pole's
// time constant 1/|lambda|, or +Inf when an eigenvalue is (numerically)
// zero. It is used to size scan windows for threshold-crossing searches.
func (sol *Solution2) SlowestTimeConstant() float64 {
	minMag := math.Inf(1)
	for _, l := range []float64{sol.l1, sol.l2} {
		if m := math.Abs(l); m > 1e-30 && m < minMag {
			minMag = m
		}
	}
	if math.IsInf(minMag, 1) {
		return math.Inf(1)
	}
	return 1 / minMag
}

// unitRoundoff is u = 2^-53, the relative rounding error of one
// float64 operation.
const unitRoundoff = 0x1p-53

// Every Solution2 component has a derivative of the form
//
//	d1·e^{l1 t} + d2·e^{l2 t}    (diagonal and singular kinds)
//	e^{l t}·(α + β t)            (defective kind)
//
// which changes sign at most once: a component has at most one critical
// point and is monotone on either side of it. CriticalY and TermBoundY
// expose that structure for the Y component in terms of the function At
// evaluates, read in exact arithmetic over the stored coefficients (the
// component's "exact value"), so a caller can bound the sign of At(t).Y
// between two evaluations without evaluating the points in between.

// CriticalY returns an interval [lo, hi] of local time, rounding
// included, outside of which the exact value of the Y component is
// monotone: on t <= lo and on t >= hi. It returns lo = hi = +Inf when
// the component is monotone everywhere, and lo = -Inf, hi = +Inf when
// rounding cannot place the critical point (a slope coefficient that
// cancels to within rounding, or an overflow).
func (sol *Solution2) CriticalY() (lo, hi float64) {
	switch sol.kind {
	case kindDiagonal, kindSingular:
		var g1, g2 float64 // the singular kind's per-mode forcing
		if sol.kind == kindSingular {
			g1, g2 = sol.vp.X, sol.vp.Y
		}
		s1, r1, ok1 := slopeCoef(sol.c1, sol.l1, g1)
		s2, r2, ok2 := slopeCoef(sol.c2, sol.l2, g2)
		if !ok1 || !ok2 {
			return math.Inf(-1), math.Inf(1)
		}
		return expPairCritical(sol.l1, sol.v1.Y, s1, r1, sol.l2, sol.v2.Y, s2, r2)
	case kindDefective:
		// Y' = e^{l t}(α + β t) with α = l·w.Y + N w.Y and β = l·N w.Y.
		l, w, nw := sol.l1, sol.w.Y, sol.nw.Y
		if l == 0 || nw == 0 {
			return math.Inf(1), math.Inf(1) // β = 0: Y' keeps the sign of α
		}
		beta := l * nw
		lw := l * w
		alpha := lw + nw
		errAlpha := unitRoundoff * (math.Abs(lw) + math.Abs(alpha))
		tc := -alpha / beta
		return aroundCritical(tc, 2*(errAlpha/math.Abs(beta)+4*unitRoundoff*math.Abs(tc)))
	}
	return math.Inf(-1), math.Inf(1)
}

// slopeCoef returns s = c·l + g, the slope coefficient of a mode term
// c·e^{l t} + g·phi(l, t), with a bound rel on its relative rounding
// error. ok is false when rounding leaves the sign of s undecided.
func slopeCoef(c, l, g float64) (s, rel float64, ok bool) {
	if g == 0 || c == 0 || l == 0 {
		s = c*l + g // a single rounding at most
		if s == 0 && c != 0 && l != 0 {
			return 0, 0, false // underflow hid a nonzero slope
		}
		return s, unitRoundoff, true
	}
	cl := c * l
	s = cl + g
	errAbs := unitRoundoff * (math.Abs(cl) + math.Abs(s))
	if !(math.Abs(s) > 8*errAbs) {
		return 0, 0, false
	}
	return s, 2 * errAbs / math.Abs(s), true
}

// expPairCritical places the root of d1·e^{l1 t} + d2·e^{l2 t} with
// d_i = y_i·s_i, where s_i carries relative error rel_i.
func expPairCritical(l1, y1, s1, rel1, l2, y2, s2, rel2 float64) (lo, hi float64) {
	d1, d2 := y1*s1, y2*s2
	if math.IsNaN(d1) || math.IsNaN(d2) || math.IsInf(d1, 0) || math.IsInf(d2, 0) ||
		(d1 == 0 && y1 != 0 && s1 != 0) || (d2 == 0 && y2 != 0 && s2 != 0) {
		return math.Inf(-1), math.Inf(1) // overflow, or underflow hid a nonzero term
	}
	if d1 == 0 || d2 == 0 || l1 == l2 || (d1 > 0) == (d2 > 0) {
		return math.Inf(1), math.Inf(1) // Y' never changes sign
	}
	// Order the terms so lf > ls; the root is ln(-ds/df) / (lf - ls).
	lf, df, ls, ds := l1, d1, l2, d2
	if l2 > l1 {
		lf, df, ls, ds = l2, d2, l1, d1
	}
	rho := rel1 + rel2 + 4*unitRoundoff
	lnr := math.Log(-ds / df)
	dl := lf - ls
	tc := lnr / dl
	return aroundCritical(tc, 2*((2*rho+4*unitRoundoff*(1+math.Abs(lnr)))/dl+4*unitRoundoff*math.Abs(tc)))
}

// aroundCritical widens a computed critical point tc by its error bound
// err, reporting an unplaceable point when either is not finite.
func aroundCritical(tc, err float64) (lo, hi float64) {
	if math.IsNaN(tc) || math.IsInf(tc, 0) || math.IsNaN(err) || math.IsInf(err, 0) {
		return math.Inf(-1), math.Inf(1)
	}
	return tc - err, tc + err
}

// TermBoundY bounds the magnitudes of the terms At sums for the Y
// component over local times in [ta, tb], each weighted by the error
// its exponential's rounded argument contributes. The rounding error of
// At(t).Y against its exact value is below 8·2^-53 times the bound for
// every t in [ta, tb]. A NaN or infinite bound means no useful bound
// exists (overflowing terms).
func (sol *Solution2) TermBoundY(ta, tb float64) float64 {
	tm := math.Max(math.Abs(ta), math.Abs(tb))
	switch sol.kind {
	case kindDiagonal:
		return math.Abs(sol.vp.Y) +
			termBound(sol.v1.Y*sol.c1, expBound(sol.l1, ta, tb)) +
			termBound(sol.v2.Y*sol.c2, expBound(sol.l2, ta, tb))
	case kindDefective:
		return math.Abs(sol.vp.Y) +
			termBound(math.Abs(sol.w.Y)+math.Abs(sol.nw.Y)*tm, expBound(sol.l1, ta, tb))
	case kindSingular:
		return termBound(sol.v1.Y, singularModeBound(sol.c1, sol.l1, sol.vp.X, ta, tb, tm)) +
			termBound(sol.v2.Y, singularModeBound(sol.c2, sol.l2, sol.vp.Y, ta, tb, tm))
	}
	return math.NaN()
}

// singularModeBound bounds c·e^{l t} + g·phi(l, t) and the rounding of
// phi's e^{l t} - 1 cancellation over [ta, tb].
func singularModeBound(c, l, g, ta, tb, tm float64) float64 {
	e := expBound(l, ta, tb)
	phiBound := tm
	if l != 0 {
		phiBound = (e + 1) * (tm + 1/math.Abs(l))
	}
	return termBound(c, e) + termBound(g, phiBound)
}

// expBound is the maximum of e^{l t}·(1 + |l t|) over t in [ta, tb].
// The function is monotone in t (decreasing for l < 0, increasing for
// l > 0), so the maximum sits at one end.
func expBound(l, ta, tb float64) float64 {
	t := tb
	if l < 0 {
		t = ta
	}
	x := l * t
	return math.Exp(x) * (1 + math.Abs(x))
}

// termBound is |coef|·scale, with a zero coefficient contributing
// nothing even when scale overflows.
func termBound(coef, scale float64) float64 {
	if coef == 0 {
		return 0
	}
	return math.Abs(coef) * scale
}

// SteadyState returns the t -> infinity limit of the solution when it
// exists (all eigenvalues strictly negative, or zero-eigenvalue modes with
// zero forcing). ok is false when the trajectory grows without bound or a
// neutral mode keeps its initial value forever (mode (1,1)'s V_N): in that
// case the returned value holds the limit with neutral modes frozen.
func (sol *Solution2) SteadyState() (la.Vec2, bool) {
	switch sol.kind {
	case kindDiagonal:
		if sol.l1 < 0 && sol.l2 < 0 {
			return sol.vp, true
		}
		return sol.vp, false
	case kindDefective:
		if sol.l1 < 0 {
			return sol.vp, true
		}
		return sol.vp, false
	case kindSingular:
		// Neutral modes (l == 0) with zero forcing stay at c_i; with
		// nonzero forcing they diverge.
		x1, ok1 := modeLimit(sol.l1, sol.c1, sol.vp.X)
		x2, ok2 := modeLimit(sol.l2, sol.c2, sol.vp.Y)
		return sol.v1.Scale(x1).Add(sol.v2.Scale(x2)), ok1 && ok2
	}
	return la.Vec2{}, false
}

func modeLimit(l, c, g float64) (float64, bool) {
	switch {
	case l < 0:
		return -g / l, true
	case l == 0 && g == 0:
		return c, false // frozen, not a true global steady state
	default:
		return math.Inf(1), false
	}
}

// RK4 integrates V' = A V + g numerically from v0 over [0, T] with n
// steps, returning the final state. It exists to cross-validate the
// closed-form solution in tests.
func (s Linear2) RK4(v0 la.Vec2, T float64, n int) la.Vec2 {
	if n < 1 {
		n = 1
	}
	h := T / float64(n)
	f := func(v la.Vec2) la.Vec2 { return s.A.MulVec(v).Add(s.G) }
	v := v0
	for i := 0; i < n; i++ {
		k1 := f(v)
		k2 := f(v.Add(k1.Scale(h / 2)))
		k3 := f(v.Add(k2.Scale(h / 2)))
		k4 := f(v.Add(k3.Scale(h)))
		v = v.Add(k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6))
	}
	return v
}
