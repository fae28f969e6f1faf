// Package sparse provides a structurally sparse LU factorization for
// the MNA systems of the analog simulator, split KLU-style into a
// one-time symbolic phase and a cheap, repeatable numeric phase.
//
// The circuit topology — and therefore the nonzero pattern of the
// stamped Jacobian — is fixed for the life of a bench, while its values
// change on every Newton iteration of every timestep. Analyze runs a
// pilot factorization once on a representative matrix: it chooses a
// static row/column pivot order by Markowitz cost (with a relative
// magnitude admissibility threshold, the classical fill-reducing
// heuristic), discovers every fill-in position that elimination will
// create, and flattens the whole elimination into one slot schedule.
//
// Values live in a packed array with one slot per structural position:
// the caller's stamped pattern first, in the order it was given to
// Analyze (duplicates dropped), then the fill-in positions. Because the
// pattern slots are numbered by the caller's own pattern, a stamping
// layer can map its devices to slots once per topology without
// consulting the Symbolic, and stamp straight into the packed array.
// For the systems here (n ≲ a few hundred, a few entries per row) the
// packed values fit in L1 cache where a dense row-major matrix does
// not. Pack gathers a dense matrix into the slot layout for callers
// that stamp densely.
//
// FactorSolve refactors a packed array by replaying the schedule: per
// pivot step, the pivot slot, the pivot row's U slots, and per lower
// row a multiplier slot plus target slots aligned with the U slots. No
// pivot search, no pattern discovery, no index arithmetic, no divisions
// beyond one reciprocal per pivot, no allocations, and O(nnz +
// flops)-proportional work.
//
// The static pivot order is chosen for the representative values seen
// at Analyze time. If the values later drift so far that a scheduled
// pivot loses all significance against its row (|pivot| below
// RefactorRel times the row maximum), FactorSolve returns ErrPivot
// rather than amplify roundoff; callers fall back to a dense
// partial-pivot solve and re-Analyze on fresher values.
package sparse

import (
	"errors"
	"fmt"
	"math"

	"hybriddelay/internal/la"
)

// ErrPivot reports that a statically scheduled pivot became too small
// relative to its row during a numeric refactor. The factorization is
// abandoned mid-sweep (the packed values are partially clobbered); the
// caller should re-stamp, solve densely with partial pivoting, and
// request a fresh Analyze before the next sparse refactor.
var ErrPivot = errors.New("sparse: static pivot below stability threshold")

// Options tunes the symbolic analysis and the numeric stability guard.
// The zero value selects the defaults documented on each field.
type Options struct {
	// PivotRel is the pilot's admissibility threshold: a candidate
	// pivot must have magnitude at least PivotRel times the largest
	// magnitude in its column (among active rows) to be eligible for
	// Markowitz selection. Larger values favour stability over fill
	// reduction. Default 0.1.
	PivotRel float64
	// RefactorRel is the numeric phase's small-pivot guard: a scheduled
	// pivot whose magnitude falls below RefactorRel times the largest
	// magnitude in its (updated) row triggers ErrPivot. Default 1e-10.
	RefactorRel float64
}

func (o *Options) defaults() {
	if o.PivotRel <= 0 {
		o.PivotRel = 0.1
	}
	if o.RefactorRel <= 0 {
		o.RefactorRel = 1e-10
	}
}

// Symbolic is the result of the one-time analysis of a sparsity
// pattern: the static pivot order, the fill-in positions elimination
// will create, and the flattened slot schedule the numeric phase
// replays. A Symbolic is immutable after Analyze and safe for
// concurrent use; per-solve state lives in Numeric.
type Symbolic struct {
	n           int
	refactorRel float64

	// Pivot order: step k eliminates matrix row rowOf[k] and column
	// colOf[k]. Solving Ax=b, step k's unknown is x[colOf[k]] and its
	// equation is row rowOf[k].
	rowOf, colOf []int32

	// Lower schedule, CSR-flattened by pivot step: the steps (> k)
	// whose rows hold a structural entry in pivot column k and must be
	// updated during step k's elimination.
	lowPtr   []int32
	lowSteps []int32

	// Upper schedule, CSR-flattened by pivot step: the matrix columns
	// (> step k in elimination order) where pivot row rowOf[k] holds a
	// structural entry, i.e. the U structure of the row. upSteps holds
	// the owning pivot step of each column, for the substitution
	// passes.
	upPtr   []int32
	upCols  []int32
	upSteps []int32

	// The same schedule in packed slots. pivSlot[k] holds step k's
	// pivot; upSlot (indexed like upCols) the pivot row's U entries;
	// mulSlot (indexed like lowSteps) each lower row's entry in the
	// pivot column, which becomes its multiplier; tgtSlot the lower
	// rows' entries in the U columns, len(U) per lower row, aligned
	// with upSlot and laid out in elimination order so the kernel walks
	// it with one running cursor.
	pivSlot []int32
	upSlot  []int32
	mulSlot []int32
	tgtSlot []int32

	// touched maps every slot to its dense row-major offset: the
	// deduplicated input pattern first, in input order, then fill-in.
	touched []int32

	fill int
}

// N returns the system size.
func (s *Symbolic) N() int { return s.n }

// Fill returns the number of fill-in positions elimination creates
// beyond the stamped pattern.
func (s *Symbolic) Fill() int { return s.fill }

// NNZ returns the number of structural positions (pattern plus fill),
// which is also the length of the packed value array.
func (s *Symbolic) NNZ() int { return len(s.touched) }

// Touched returns, for every slot of the packed value array, the dense
// row-major offset of its structural position: the input pattern's
// distinct offsets first, in the order Analyze received them, then the
// fill-in positions. The slice is owned by the Symbolic and must not
// be modified.
func (s *Symbolic) Touched() []int32 { return s.touched }

// Pack gathers the structural positions of the dense matrix a into the
// packed value array vals (length NNZ). Fill slots are copied like the
// rest, so a must hold zeros at fill positions — true of any matrix
// built by stamping the analyzed pattern onto zeros.
//
//hybrid:noalloc
func (s *Symbolic) Pack(vals []float64, a *la.Matrix) {
	data := a.Data
	for slot, off := range s.touched {
		vals[slot] = data[off]
	}
}

// Analyze runs the pilot factorization on a representative matrix a,
// restricted to the given sparsity pattern (dense row-major offsets
// into a.Data; duplicates allowed). Values of a outside the pattern
// are ignored, so a matrix carrying stale garbage off-pattern (e.g.
// after an aborted in-place factorization) analyzes correctly. a
// itself is not modified.
//
// The pilot performs a full Markowitz-ordered elimination on a masked
// copy: at each step it picks, among admissible entries (magnitude at
// least PivotRel of the column maximum), the pivot minimizing
// (r-1)(c-1) for r, c the active row/column counts — ties broken by
// larger magnitude, then lowest row and column index, so the order is
// deterministic. Returns la.ErrSingular if no admissible nonzero pivot
// exists at some step.
func Analyze(a *la.Matrix, pattern []int32, opt Options) (*Symbolic, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: cannot analyze non-square %dx%d matrix", a.Rows, a.Cols)
	}
	opt.defaults()
	n := a.Rows
	nn := n * n

	// slotOf numbers the structural positions: pattern offsets in input
	// order first, fill-in as the pilot creates it.
	slotOf := make([]int32, nn)
	for i := range slotOf {
		slotOf[i] = -1
	}
	touched := make([]int32, 0, len(pattern))
	vals := make([]float64, nn)
	for _, off := range pattern {
		if off < 0 || int(off) >= nn {
			return nil, fmt.Errorf("sparse: pattern offset %d outside %dx%d matrix", off, n, n)
		}
		if slotOf[off] < 0 {
			slotOf[off] = int32(len(touched))
			touched = append(touched, off)
			vals[off] = a.Data[off]
		}
	}
	exists := func(off int) bool { return slotOf[off] >= 0 }

	activeRow := make([]bool, n)
	activeCol := make([]bool, n)
	rowCnt := make([]int, n)
	colCnt := make([]int, n)
	for i := 0; i < n; i++ {
		activeRow[i], activeCol[i] = true, true
	}
	for _, off := range touched {
		rowCnt[int(off)/n]++
		colCnt[int(off)%n]++
	}

	s := &Symbolic{
		n:           n,
		refactorRel: opt.RefactorRel,
		rowOf:       make([]int32, n),
		colOf:       make([]int32, n),
		lowPtr:      make([]int32, n+1),
		upPtr:       make([]int32, n+1),
	}
	// Per-step schedules in matrix coordinates; converted to step
	// indices and slots once the full pivot order is known.
	lowRows := make([][]int32, n)
	upCols := make([][]int32, n)
	colMax := make([]float64, n)

	for k := 0; k < n; k++ {
		// Column maxima over the active submatrix, for admissibility.
		for j := 0; j < n; j++ {
			colMax[j] = 0
		}
		for i := 0; i < n; i++ {
			if !activeRow[i] {
				continue
			}
			base := i * n
			for j := 0; j < n; j++ {
				if activeCol[j] && exists(base+j) {
					if v := math.Abs(vals[base+j]); v > colMax[j] {
						colMax[j] = v
					}
				}
			}
		}
		// Markowitz selection among admissible candidates.
		bestI, bestJ := -1, -1
		bestCost := 0
		bestMag := 0.0
		for i := 0; i < n; i++ {
			if !activeRow[i] {
				continue
			}
			base := i * n
			for j := 0; j < n; j++ {
				if !activeCol[j] || !exists(base+j) {
					continue
				}
				v := math.Abs(vals[base+j])
				if v == 0 || v < opt.PivotRel*colMax[j] {
					continue
				}
				cost := (rowCnt[i] - 1) * (colCnt[j] - 1)
				if bestI < 0 || cost < bestCost || (cost == bestCost && v > bestMag) {
					bestI, bestJ, bestCost, bestMag = i, j, cost, v
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("sparse: no admissible pivot at elimination step %d: %w", k, la.ErrSingular)
		}
		s.rowOf[k], s.colOf[k] = int32(bestI), int32(bestJ)
		activeRow[bestI], activeCol[bestJ] = false, false
		pbase := bestI * n
		// U structure of the pivot row: active columns it touches.
		for j := 0; j < n; j++ {
			if activeCol[j] && exists(pbase+j) {
				upCols[k] = append(upCols[k], int32(j))
			}
		}
		// Row/column counts shrink as the pivot row and column retire.
		for j := 0; j < n; j++ {
			if activeCol[j] && exists(pbase+j) {
				colCnt[j]--
			}
		}
		piv := vals[pbase+bestJ]
		for i := 0; i < n; i++ {
			if !activeRow[i] || !exists(i*n+bestJ) {
				continue
			}
			rowCnt[i]--
			lowRows[k] = append(lowRows[k], int32(i))
			// Numeric elimination of the pilot values, creating fill.
			l := vals[i*n+bestJ] / piv
			base := i * n
			for _, j32 := range upCols[k] {
				j := int(j32)
				if !exists(base + j) {
					slotOf[base+j] = int32(len(touched))
					touched = append(touched, int32(base+j))
					s.fill++
					rowCnt[i]++
					colCnt[j]++
				}
				vals[base+j] -= l * vals[pbase+j]
			}
		}
	}
	s.touched = touched

	// Matrix coordinates -> elimination steps and slots.
	stepOfRow := make([]int32, n)
	stepOfCol := make([]int32, n)
	for k := 0; k < n; k++ {
		stepOfRow[s.rowOf[k]] = int32(k)
		stepOfCol[s.colOf[k]] = int32(k)
	}
	nLow, nUp, nTgt := 0, 0, 0
	for k := 0; k < n; k++ {
		nLow += len(lowRows[k])
		nUp += len(upCols[k])
		nTgt += len(lowRows[k]) * len(upCols[k])
	}
	s.lowSteps = make([]int32, 0, nLow)
	s.mulSlot = make([]int32, 0, nLow)
	s.upCols = make([]int32, 0, nUp)
	s.upSteps = make([]int32, 0, nUp)
	s.upSlot = make([]int32, 0, nUp)
	s.tgtSlot = make([]int32, 0, nTgt)
	s.pivSlot = make([]int32, n)
	for k := 0; k < n; k++ {
		pbase := int(s.rowOf[k]) * n
		pc := int(s.colOf[k])
		s.pivSlot[k] = slotOf[pbase+pc]
		s.upPtr[k] = int32(len(s.upCols))
		for _, c := range upCols[k] {
			s.upCols = append(s.upCols, c)
			s.upSteps = append(s.upSteps, stepOfCol[c])
			s.upSlot = append(s.upSlot, slotOf[pbase+int(c)])
		}
		s.lowPtr[k] = int32(len(s.lowSteps))
		for _, r := range lowRows[k] {
			base := int(r) * n
			s.lowSteps = append(s.lowSteps, stepOfRow[r])
			s.mulSlot = append(s.mulSlot, slotOf[base+pc])
			for _, c := range upCols[k] {
				s.tgtSlot = append(s.tgtSlot, slotOf[base+int(c)])
			}
		}
	}
	s.lowPtr[n] = int32(len(s.lowSteps))
	s.upPtr[n] = int32(len(s.upCols))
	return s, nil
}

// Numeric holds the per-solver mutable state of the numeric phase: the
// hoisted pivot reciprocals and the permuted solution workspace. One
// Numeric serves one solver goroutine; create more with NewNumeric for
// concurrent use of the same Symbolic.
type Numeric struct {
	s     *Symbolic
	recip []float64
	xw    []float64
}

// NewNumeric returns a numeric-phase workspace bound to s.
func (s *Symbolic) NewNumeric() *Numeric {
	return &Numeric{
		s:     s,
		recip: make([]float64, s.n),
		xw:    make([]float64, s.n),
	}
}

// FactorSolve refactors the packed values vals (length NNZ, in the
// Symbolic's slot order, fill slots zero) and solves a·x = b in the
// same sweep, replaying the precomputed slot schedule with the static
// pivot order. vals is modified in place: its slots come to hold the
// LU factors. b is not modified; x and b must have length n and may
// alias each other. The call performs no allocations.
//
// Per position, the arithmetic is the classical right-looking scalar
// elimination's, in its order: each step guards its pivot, stores one
// reciprocal, and for every lower row with a nonzero multiplier
// subtracts multiplier times pivot-row entry from each target in U
// order, then updates the permuted right-hand side. Zero multipliers
// are skipped rather than applied, which keeps signed zeros and
// non-finite pivot-row values out of untouched rows.
//
// Each pivot is guarded: if its magnitude falls below RefactorRel
// times the largest magnitude in its updated row, FactorSolve returns
// ErrPivot with vals partially clobbered — re-stamp, solve densely,
// and re-Analyze before retrying the sparse path.
//
// "Performs no allocations" is enforced statically by hybridlint's
// noalloc analyzer (this annotation) and dynamically by CI's
// zero-allocation gate on every row of BenchmarkSparseFactorSolve.
//
//hybrid:noalloc
func (nu *Numeric) FactorSolve(vals, x, b []float64) error {
	s := nu.s
	n := s.n
	if len(vals) != len(s.touched) {
		return fmt.Errorf("sparse: %d packed values do not match %d analyzed slots", len(vals), len(s.touched))
	}
	if len(x) != n || len(b) != n {
		return fmt.Errorf("sparse: slice lengths (%d, %d) do not match system size %d", len(x), len(b), n)
	}
	xw := nu.xw
	recip := nu.recip
	// Gather the RHS into elimination order.
	for k := 0; k < n; k++ {
		xw[k] = b[s.rowOf[k]]
	}
	tgt := s.tgtSlot
	for k := 0; k < n; k++ {
		up := s.upSlot[s.upPtr[k]:s.upPtr[k+1]]
		piv := vals[s.pivSlot[k]]
		// Stability guard against the row's current magnitudes.
		rmax := math.Abs(piv)
		for _, u := range up {
			if v := math.Abs(vals[u]); v > rmax {
				rmax = v
			}
		}
		if piv == 0 || math.Abs(piv) < s.refactorRel*rmax {
			return ErrPivot
		}
		r := 1 / piv
		recip[k] = r
		xk := xw[k]
		lo, hi := s.lowPtr[k], s.lowPtr[k+1]
		for e := lo; e < hi; e++ {
			ts := tgt[:len(up)]
			tgt = tgt[len(up):]
			ms := s.mulSlot[e]
			l := vals[ms] * r
			vals[ms] = l
			if l != 0 {
				for t, u := range up {
					vals[ts[t]] -= l * vals[u]
				}
				xw[s.lowSteps[e]] -= l * xk
			}
		}
	}
	// Back substitution over the U schedule, divisions hoisted into the
	// stored reciprocals, then scatter to natural unknown order.
	for k := n - 1; k >= 0; k-- {
		lo, hi := s.upPtr[k], s.upPtr[k+1]
		up := s.upSlot[lo:hi]
		us := s.upSteps[lo:hi]
		sum := xw[k]
		for t, u := range up {
			sum -= vals[u] * xw[us[t]]
		}
		xw[k] = sum * recip[k]
	}
	for k := 0; k < n; k++ {
		x[s.colOf[k]] = xw[k]
	}
	return nil
}
