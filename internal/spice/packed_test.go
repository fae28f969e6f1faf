package spice

import (
	"math"
	"testing"

	"hybriddelay/internal/la/sparse"
)

// noopDevice stamps nothing. As a device type the sparse pattern
// builder does not know, it routes every iteration of its circuit
// through the dense cold path (restampSparse into ctx.G, then Pack)
// instead of the packed channel stamps.
type noopDevice struct{ n NodeID }

func (d noopDevice) Name() string            { return "NOOP" }
func (d noopDevice) Nodes() []NodeID         { return []NodeID{d.n} }
func (d noopDevice) Stamp(ctx *StampContext) {}

// TestSparsePackedStampMatchesDenseStamp: stamping the MOSFET channels
// straight into packed slots must give the kernel exactly the values
// the dense stamp-and-gather route gives it, so a gate-chain transient
// is bit-identical either way, with the same solver traffic.
func TestSparsePackedStampMatchesDenseStamp(t *testing.T) {
	opt := TransientOptions{
		TStart: 0, TStop: 3e-9,
		MaxStep:     20e-12,
		Breakpoints: []float64{1e-9, 2e-9},
		Solver:      SparseFast,
	}
	run := func(withNoop bool) (*TransientResult, SolverStats) {
		c, out := gateChain(6)
		// A coupling capacitor from the last output back to the first
		// NAND closes a loop in the pattern, so elimination creates
		// fill-in slots (the open chain has none), which every
		// iteration must clear.
		c.AddCapacitor("CFB", out, c.Node("y0"), 0.5e-15)
		if withNoop {
			// The supply node's block is already in the pattern (every
			// pMOS source sits on it), so the pattern is unchanged.
			c.Add(noopDevice{n: c.Node("vdd")})
		}
		sv, err := NewSolver(c)
		if err != nil {
			t.Fatal(err)
		}
		sv.SetSymbolicCache(sparse.NewSymbolicCache(4))
		res, err := sv.Transient(opt)
		if err != nil {
			t.Fatal(err)
		}
		if withNoop && len(sv.sp.nlDevs) != 1 {
			t.Fatalf("noop device not on the dense path: %d nlDevs", len(sv.sp.nlDevs))
		}
		if sv.sp.sym.Fill() == 0 {
			t.Fatal("no fill-in: the test circuit no longer exercises fill slots")
		}
		return res, sv.Stats()
	}
	packed, stPacked := run(false)
	dense, stDense := run(true)
	requireBitIdentical(t, packed, dense, "packed vs dense-gathered")
	if stPacked.Iterations != stDense.Iterations || stPacked.SparseFactorizations != stDense.SparseFactorizations {
		t.Fatalf("solver traffic differs: packed %+v, dense-gathered %+v", stPacked, stDense)
	}
	if stPacked.SparseFallbacks != 0 {
		t.Fatalf("unexpected fallbacks: %+v", stPacked)
	}
}

// TestSparseLinearBaseKept: a Newton solve at the previous solve's (Dt,
// Method) keeps the linear base matrix and restamps only its RHS; the
// result must be bit-identical to restamping the whole base, on the
// matrix, its packed gather and the RHS alike.
func TestSparseLinearBaseKept(t *testing.T) {
	c, _ := gateChain(4)
	s, err := NewSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	op, err := s.OperatingPoint(0, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.devices {
		if st, ok := d.(Stateful); ok {
			st.Init(op)
		}
	}
	s.mode = SparseFast
	v := append([]float64(nil), op...)
	const dt = 10e-12
	ctx := &s.ctx
	ctx.DC = false
	for step := 1; step <= 3; step++ {
		ctx.Time, ctx.Dt, ctx.Method = 1e-9+float64(step)*dt, dt, Trapezoidal
		if err := s.newton(v, NewtonOptions{}, 0, false); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ctx.V = v
		for _, d := range c.devices {
			if st, ok := d.(Stateful); ok {
				st.Commit(ctx)
			}
		}
	}
	if got := s.Stats().LinearBaseReuses; got != 2 {
		t.Fatalf("LinearBaseReuses = %d after three equal-Dt solves, want 2", got)
	}
	// One more solve without commit, then restamp the full base at the
	// same state and compare.
	ctx.Time += dt
	if err := s.newton(v, NewtonOptions{}, 0, false); err != nil {
		t.Fatal(err)
	}
	sp := &s.sp
	keptG := append([]float64(nil), sp.linG.Data...)
	keptRHS := append([]float64(nil), sp.linRHS...)
	keptVals := append([]float64(nil), sp.linVals...)
	sp.linValid = false
	s.stampLinearBase(v)
	same := func(label string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: kept %v, restamped %v", label, i, a[i], b[i])
			}
		}
	}
	same("linG", keptG, sp.linG.Data)
	same("linRHS", keptRHS, sp.linRHS)
	same("linVals", keptVals, sp.linVals)

	// A new step size rebuilds the base.
	before := s.Stats().LinearBaseReuses
	ctx.Dt /= 2
	if err := s.newton(v, NewtonOptions{}, 0, false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LinearBaseReuses; got != before {
		t.Fatalf("base kept across a Dt change (%d -> %d reuses)", before, got)
	}
}
