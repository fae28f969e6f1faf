package ode

import (
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/la"
)

// shapeSystem draws a random system of the given kind: a stable RC-like
// one (diagonal), one with an isolated, forced node (singular) or a
// repeated eigenvalue with a Jordan block (defective).
func shapeSystem(rng *rand.Rand, kind solKind) Linear2 {
	switch kind {
	case kindSingular:
		return Linear2{
			A: la.Mat2{A21: rng.NormFloat64(), A22: -(0.5 + rng.Float64())},
			G: la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()},
		}
	case kindDefective:
		// -s·I plus the nilpotent k·[[u, 1], [-u², -u]], on dyadic
		// values so the repeated eigenvalue is exact.
		s := 1 + float64(rng.Intn(8))/8
		k := float64(rng.Intn(17)-8) / 4
		if k == 0 {
			k = 1
		}
		u := []float64{-2, -1, -0.5, 0.5, 1, 2}[rng.Intn(6)]
		return Linear2{
			A: la.Mat2{A11: -s + k*u, A12: k, A21: -k * u * u, A22: -s - k*u},
			G: la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()},
		}
	}
	return rcSystem(rng)
}

// TestCriticalYBracketsTurn: outside [lo, hi] the slope of V_Y keeps one
// sign on each side, and when the interval is finite the slope changes
// sign across it.
func TestCriticalYBracketsTurn(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	turns := [3]int{}
	for trial := 0; trial < 600; trial++ {
		kind := solKind(trial % 3)
		sys := shapeSystem(rng, kind)
		sol, err := sys.Solve(la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.kind != kind {
			t.Fatalf("trial %d: solved as kind %d, want %d", trial, sol.kind, kind)
		}
		lo, hi := sol.CriticalY()
		if math.IsInf(lo, -1) {
			t.Fatalf("trial %d: critical point not placed for %+v", trial, *sol)
		}
		if lo > hi {
			t.Fatalf("trial %d: empty interval [%g, %g]", trial, lo, hi)
		}
		// The slope's sign, where it is clear of rounding.
		slope := func(tm float64) int {
			d := sol.Derivative(tm).Y
			v := sol.At(tm)
			noise := 1e-9 * (math.Abs(sys.A.A21*v.X) + math.Abs(sys.A.A22*v.Y) + math.Abs(sys.G.Y))
			switch {
			case d > noise:
				return 1
			case d < -noise:
				return -1
			}
			return 0
		}
		const horizon = 20.0
		before, after := 0, 0
		for i := 0; i <= 400; i++ {
			tm := horizon * float64(i) / 400
			side := &after
			if tm < lo {
				side = &before
			} else if tm <= hi {
				continue
			}
			s := slope(tm)
			if s == 0 {
				continue
			}
			if *side != 0 && *side != s {
				t.Fatalf("trial %d (kind %d): slope changes sign at t=%g outside [%g, %g]", trial, kind, tm, lo, hi)
			}
			*side = s
		}
		if !math.IsInf(hi, 1) {
			turns[kind]++
			if w := hi - lo; w > 1e-9*(1+math.Abs(lo)) {
				t.Errorf("trial %d: critical interval [%g, %g] is loose", trial, lo, hi)
			}
			if s1, s2 := slope(lo-1e-3), slope(hi+1e-3); s1 != 0 && s2 != 0 && s1 == s2 {
				t.Fatalf("trial %d (kind %d): slope %d on both sides of [%g, %g]", trial, kind, s1, lo, hi)
			}
		}
	}
	for kind, n := range turns {
		if n == 0 {
			t.Errorf("kind %d: no trial had a critical point", kind)
		}
	}
}

// TestCriticalYMonotone: components without a turn report +Inf.
func TestCriticalYMonotone(t *testing.T) {
	// Mode (1,1) shape: V_O decays, V_N frozen.
	sol, err := Linear2{A: la.Mat2{A22: -2}}.Solve(la.Vec2{X: 0.35, Y: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := sol.CriticalY(); !math.IsInf(lo, 1) || !math.IsInf(hi, 1) {
		t.Errorf("decaying V_O: critical interval [%g, %g], want +Inf", lo, hi)
	}
	// Decoupled diagonal system: V_Y is a single exponential.
	sol, err = Linear2{A: la.Mat2{A11: -1, A22: -3}, G: la.Vec2{X: 1, Y: 1}}.Solve(la.Vec2{X: 5, Y: -5})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := sol.CriticalY(); !math.IsInf(lo, 1) || !math.IsInf(hi, 1) {
		t.Errorf("single exponential: critical interval [%g, %g], want +Inf", lo, hi)
	}
}

// TestTermBoundY: the bound covers |At(t).Y| over the window, and a zero
// coefficient contributes nothing even where its exponential overflows.
func TestTermBoundY(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		sol, err := shapeSystem(rng, solKind(trial%3)).Solve(la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
		ta := rng.Float64()
		tb := ta + 10*rng.Float64()
		b := sol.TermBoundY(ta, tb)
		if !(b >= 0) || math.IsInf(b, 1) {
			t.Fatalf("trial %d: bound %g", trial, b)
		}
		for i := 0; i <= 50; i++ {
			tm := ta + (tb-ta)*float64(i)/50
			if y := sol.At(tm).Y; math.Abs(y) > b {
				t.Fatalf("trial %d: |V_Y(%g)| = %g exceeds bound %g", trial, tm, math.Abs(y), b)
			}
		}
	}
	// V_O decaying next to a V_N mode that overflows over the window
	// but starts at zero: the growing exponential's coefficient is zero.
	sol, err := Linear2{A: la.Mat2{A11: 1e3, A22: -1}}.Solve(la.Vec2{X: 0, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b := sol.TermBoundY(0, 1e3); math.IsNaN(b) || math.IsInf(b, 0) {
		t.Errorf("bound %g, want the finite V_O term alone", b)
	}
}

// TestDefectiveAtJordanForm: the defective kind evaluates
// vp + e^{l t}(w + N w t) with w = v0 - vp and N = A - l·I, bit for bit.
func TestDefectiveAtJordanForm(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		sys := shapeSystem(rng, kindDefective)
		v0 := la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatal(err)
		}
		eig, err := la.EigenDecompose2(sys.A)
		if err != nil {
			t.Fatal(err)
		}
		vp, err := sys.A.Solve(la.Vec2{X: -sys.G.X, Y: -sys.G.Y})
		if err != nil {
			t.Fatal(err)
		}
		l := eig.Lambda1
		w := v0.Sub(vp)
		nw := sys.A.AddMat(la.Mat2{A11: -l, A22: -l}).MulVec(w)
		for _, tm := range []float64{0, 0.3, 1, 7} {
			want := vp.Add(w.Add(nw.Scale(tm)).Scale(math.Exp(l * tm)))
			got := sol.At(tm)
			if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
				t.Fatalf("trial %d: At(%g) = %v, Jordan form %v", trial, tm, got, want)
			}
		}
	}
}
