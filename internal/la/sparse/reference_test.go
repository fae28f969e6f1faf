package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/la"
)

// factorSolveScalar is the bit-identity reference for the packed
// kernel: the classical right-looking elimination over a dense
// row-major matrix, driven by the schedule in matrix coordinates
// (rowOf/colOf, lowSteps, upCols) rather than by slots. FactorSolve
// must produce exactly the same LU values, reciprocals and solution,
// and fail on exactly the same step. a is modified in place.
func (nu *Numeric) factorSolveScalar(a *la.Matrix, x, b []float64) error {
	s := nu.s
	n := s.n
	if a.Rows != n || a.Cols != n {
		return fmt.Errorf("sparse: matrix %dx%d does not match analyzed size %d", a.Rows, a.Cols, n)
	}
	if len(x) != n || len(b) != n {
		return fmt.Errorf("sparse: slice lengths (%d, %d) do not match system size %d", len(x), len(b), n)
	}
	data := a.Data
	xw := nu.xw
	for k := 0; k < n; k++ {
		xw[k] = b[s.rowOf[k]]
	}
	for k := 0; k < n; k++ {
		rowK := data[int(s.rowOf[k])*n : int(s.rowOf[k])*n+n]
		pc := int(s.colOf[k])
		up := s.upCols[s.upPtr[k]:s.upPtr[k+1]]
		piv := rowK[pc]
		rmax := math.Abs(piv)
		for _, c := range up {
			if v := math.Abs(rowK[c]); v > rmax {
				rmax = v
			}
		}
		if piv == 0 || math.Abs(piv) < s.refactorRel*rmax {
			return ErrPivot
		}
		r := 1 / piv
		nu.recip[k] = r
		xk := xw[k]
		for _, si := range s.lowSteps[s.lowPtr[k]:s.lowPtr[k+1]] {
			rowI := data[int(s.rowOf[si])*n : int(s.rowOf[si])*n+n]
			l := rowI[pc] * r
			rowI[pc] = l
			if l != 0 {
				for _, c := range up {
					rowI[c] -= l * rowK[c]
				}
				xw[si] -= l * xk
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		rowK := data[int(s.rowOf[k])*n : int(s.rowOf[k])*n+n]
		up := s.upCols[s.upPtr[k]:s.upPtr[k+1]]
		us := s.upSteps[s.upPtr[k]:s.upPtr[k+1]]
		sum := xw[k]
		for t, c := range up {
			sum -= rowK[c] * xw[us[t]]
		}
		xw[k] = sum * nu.recip[k]
	}
	for k := 0; k < n; k++ {
		x[s.colOf[k]] = xw[k]
	}
	return nil
}

// packedSolve packs the dense matrix a and runs the packed kernel on
// it, returning the factored packed values.
func packedSolve(nu *Numeric, a *la.Matrix, x, b []float64) ([]float64, error) {
	vals := make([]float64, nu.s.NNZ())
	nu.s.Pack(vals, a)
	return vals, nu.FactorSolve(vals, x, b)
}

// compareWithReference runs the packed kernel and the dense scalar
// reference on separate copies of a and reports the first violation of
// the contract: the same error (if any), and on success bit-identical
// solutions, LU values and hoisted reciprocals.
func compareWithReference(sym *Symbolic, a *la.Matrix, b []float64) error {
	n := a.Rows
	ws := a.Clone()
	xp := make([]float64, n)
	xs := make([]float64, n)
	np := sym.NewNumeric()
	ns := sym.NewNumeric()
	lu, errP := packedSolve(np, a, xp, b)
	errS := ns.factorSolveScalar(ws, xs, b)
	if !errors.Is(errP, errS) && !errors.Is(errS, errP) {
		return fmt.Errorf("error mismatch: packed %v, scalar %v", errP, errS)
	}
	if errP != nil {
		return nil // partial clobber on failure is allowed to differ
	}
	for i := range xp {
		if math.Float64bits(xp[i]) != math.Float64bits(xs[i]) {
			return fmt.Errorf("x[%d]: packed %x (%g), scalar %x (%g)",
				i, math.Float64bits(xp[i]), xp[i], math.Float64bits(xs[i]), xs[i])
		}
	}
	for slot, off := range sym.Touched() {
		if math.Float64bits(lu[slot]) != math.Float64bits(ws.Data[off]) {
			return fmt.Errorf("LU slot %d (offset %d): packed %g, scalar %g", slot, off, lu[slot], ws.Data[off])
		}
	}
	for k := 0; k < n; k++ {
		if math.Float64bits(np.recip[k]) != math.Float64bits(ns.recip[k]) {
			return fmt.Errorf("recip[%d]: packed %g, scalar %g", k, np.recip[k], ns.recip[k])
		}
	}
	return nil
}

// checkBitIdentical fails the test on any violation of the packed
// kernel's bit-identity contract against the scalar reference.
func checkBitIdentical(t *testing.T, sym *Symbolic, a *la.Matrix, b []float64) {
	t.Helper()
	if err := compareWithReference(sym, a, b); err != nil {
		t.Fatal(err)
	}
}

// TestBlockedMatchesScalarMNA: the packed kernel is bit-identical to
// the dense scalar reference on MNA-shaped systems (banded node blocks
// plus zero-diagonal source branch rows), across repeated refactors
// with drifting values — the exact workload of the Newton inner loop.
// (The test names predate the packed kernel, which replaced the
// supernodal blocked one.)
func TestBlockedMatchesScalarMNA(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 96} {
		a, pattern := mnaLike(n)
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("n=%d: Analyze: %v", n, err)
		}
		rng := rand.New(rand.NewSource(int64(n) * 7))
		b := make([]float64, n)
		for rep := 0; rep < 8; rep++ {
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			checkBitIdentical(t, sym, a, b)
			// Drift the values (pattern fixed) as Newton iterations do.
			for _, off := range pattern {
				a.Data[off] *= 1 + 0.2*rng.Float64()
			}
		}
	}
}

// TestBlockedMatchesDense cross-checks the packed kernel against the
// dense partial-pivot reference within tolerance (the bit-identity
// tests pin exact bits; this pins overall correctness).
func TestBlockedMatchesDense(t *testing.T) {
	for _, n := range []int{8, 32, 96} {
		a, pattern := mnaLike(n)
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("n=%d: Analyze: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5) - 2
		}
		want := solveDense(t, a, b)
		x := make([]float64, n)
		if _, err := packedSolve(sym.NewNumeric(), a, x, b); err != nil {
			t.Fatalf("FactorSolve: %v", err)
		}
		for i := range x {
			if d := math.Abs(x[i] - want[i]); d > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: x[%d] = %g, dense %g", n, i, x[i], want[i])
			}
		}
	}
}

// TestBlockedErrPivotMatchesScalar: when refactor values drift so far
// that a scheduled pivot degrades, the packed kernel must fail with
// ErrPivot exactly when the scalar reference does.
func TestBlockedErrPivotMatchesScalar(t *testing.T) {
	n := 16
	a, pattern := mnaLike(n)
	sym, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Zero a diagonal entry the static order pivots on early: the
	// refactor hits a zero pivot and must guard, on both paths.
	drift := a.Clone()
	drift.Set(int(sym.rowOf[0]), int(sym.colOf[0]), 0)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	nu := sym.NewNumeric()
	if _, err := packedSolve(nu, drift, make([]float64, n), b); !errors.Is(err, ErrPivot) {
		t.Fatalf("packed: got %v, want ErrPivot", err)
	}
	if err := nu.factorSolveScalar(drift.Clone(), make([]float64, n), b); !errors.Is(err, ErrPivot) {
		t.Fatalf("scalar: got %v, want ErrPivot", err)
	}
	checkBitIdentical(t, sym, drift, b)
}

// TestBlockedSignedZeroMultipliers: zero multipliers must be skipped,
// not applied — a -0.0 entry combined with a zero multiplier flips
// sign under `x - (-0)`; this pins the kernel's `l != 0` guard.
func TestBlockedSignedZeroMultipliers(t *testing.T) {
	for _, n := range []int{8, 24} {
		a, pattern := mnaLike(n)
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		// Zero out scattered sub-pivot entries so the kernel sees
		// l == 0, and plant negative zeros in trailing positions.
		rng := rand.New(rand.NewSource(3))
		drift := a.Clone()
		for _, off := range pattern {
			switch rng.Intn(4) {
			case 0:
				drift.Data[off] = 0
			case 1:
				drift.Data[off] = math.Copysign(0, -1)
			}
		}
		// Keep the pivots themselves alive.
		for k := 0; k < n; k++ {
			off := int(sym.rowOf[k])*n + int(sym.colOf[k])
			if drift.Data[off] == 0 {
				drift.Data[off] = a.Data[off]
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		checkBitIdentical(t, sym, drift, b)
	}
}

// TestBlockedRandomPatterns: randomized structures through the fuzz
// generator, as a deterministic complement to FuzzFactorSolve.
func TestBlockedRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		raw := make([]byte, 2+16*16+16)
		rng.Read(raw)
		a, pattern, b, ok := decodeSystem(raw)
		if !ok {
			continue
		}
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("trial %d: Analyze: %v", trial, err)
		}
		checkBitIdentical(t, sym, a, b)
	}
}

// TestSlotNumbering pins the packed layout contract the stamping layer
// relies on: the input pattern's distinct offsets occupy the first
// slots in input order (duplicates dropped), fill-in follows, and
// every slot names a distinct structural position.
func TestSlotNumbering(t *testing.T) {
	a, pattern := mnaLike(32)
	// Reverse the pattern and repeat some offsets: numbering must follow
	// the order given, not row-major order.
	in := make([]int32, 0, len(pattern)+4)
	for i := len(pattern) - 1; i >= 0; i-- {
		in = append(in, pattern[i])
		if i%9 == 0 {
			in = append(in, pattern[i])
		}
	}
	sym, err := Analyze(a, in, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if sym.NNZ() != len(pattern)+sym.Fill() {
		t.Fatalf("NNZ = %d, want %d pattern + %d fill", sym.NNZ(), len(pattern), sym.Fill())
	}
	seen := map[int32]bool{}
	for slot, off := range sym.Touched() {
		if seen[off] {
			t.Fatalf("offset %d occupies two slots", off)
		}
		seen[off] = true
		if slot < len(pattern) && off != pattern[len(pattern)-1-slot] {
			t.Fatalf("slot %d holds offset %d, want pattern offset %d", slot, off, pattern[len(pattern)-1-slot])
		}
	}
	checkBitIdentical(t, sym, a, make([]float64, 32))
}
