package hybrid

import (
	"fmt"
	"math"
	"sort"

	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
	"hybriddelay/internal/roots"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Phase is one leg of a mode schedule: the gate is in Mode from Start
// until the next phase's Start (the final phase extends to infinity).
type Phase struct {
	Start float64
	Mode  Mode
}

// Trajectory is the piecewise closed-form solution of a mode schedule.
// The state vector is carried continuously across mode switches, exactly
// as the hybrid automaton of the paper prescribes.
type Trajectory struct {
	segs []segment
}

type segment struct {
	start float64 // absolute start time
	end   float64 // absolute end time (+Inf for the last segment)
	mode  Mode
	sol   *ode.Solution2 // local time: t - start
}

// NewTrajectory solves the schedule starting from state v0 = (V_N, V_O)
// at the first phase's start time. Phases must be sorted by Start.
func (p Params) NewTrajectory(v0 la.Vec2, phases []Phase) (*Trajectory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("hybrid: empty mode schedule")
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].Start < phases[i-1].Start {
			return nil, fmt.Errorf("hybrid: phases not sorted at index %d", i)
		}
	}
	tr := &Trajectory{}
	state := v0
	for i, ph := range phases {
		end := math.Inf(1)
		if i+1 < len(phases) {
			end = phases[i+1].Start
		}
		sol, err := p.System(ph.Mode).Solve(state)
		if err != nil {
			return nil, fmt.Errorf("hybrid: solving mode %v: %w", ph.Mode, err)
		}
		tr.segs = append(tr.segs, segment{start: ph.Start, end: end, mode: ph.Mode, sol: sol})
		if !math.IsInf(end, 1) {
			state = sol.At(end - ph.Start) // continuity across the switch
		}
	}
	return tr, nil
}

// Start returns the trajectory's first defined time.
func (tr *Trajectory) Start() float64 { return tr.segs[0].start }

// At evaluates the state (V_N, V_O) at absolute time t (clamped to the
// trajectory start).
func (tr *Trajectory) At(t float64) la.Vec2 {
	seg := tr.segs[tr.segmentIndex(t)]
	local := t - seg.start
	if local < 0 {
		local = 0
	}
	return seg.sol.At(local)
}

// VO evaluates the output voltage at absolute time t.
func (tr *Trajectory) VO(t float64) float64 { return tr.At(t).Y }

// VN evaluates the internal node voltage at absolute time t.
func (tr *Trajectory) VN(t float64) float64 { return tr.At(t).X }

// ModeAt returns the active mode at time t.
func (tr *Trajectory) ModeAt(t float64) Mode {
	return tr.segs[tr.segmentIndex(t)].mode
}

func (tr *Trajectory) segmentIndex(t float64) int {
	i := sort.Search(len(tr.segs), func(i int) bool { return tr.segs[i].start > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// crossScanDensity is the number of grid cells per segment used to
// isolate the first threshold crossing before Brent polishing. Within a
// segment V_O is a constant plus at most two exponentials (or an
// exponential times a linear term), so it has at most one critical
// point; a modest grid is ample.
const crossScanDensity = 256

// FirstOutputCrossing returns the earliest time t >= after at which V_O
// crosses level in the requested direction. ok is false if the trajectory
// never crosses.
func (tr *Trajectory) FirstOutputCrossing(level float64, rising bool, after float64) (float64, bool) {
	for _, seg := range tr.segs {
		if seg.end <= after {
			continue
		}
		t0 := math.Max(seg.start, after)
		t1 := seg.end
		if math.IsInf(t1, 1) {
			// Size the window by the slowest pole; if the steady state
			// never reaches the level, only a finite excursion could cross.
			tau := seg.sol.SlowestTimeConstant()
			if math.IsInf(tau, 1) {
				tau = 1e-9 // all-neutral system: fixed 1 ns window
			}
			t1 = t0 + 60*tau
		}
		if t, ok := outputCrossing(seg.sol, seg.start, level, rising, t0, t1); ok {
			return t, true
		}
	}
	return 0, false
}

// gridTime is point i of the crossing grid over [t0, t1]: t0 itself for
// i = 0, else t0 + (t1-t0)·i/crossScanDensity.
func gridTime(t0, t1 float64, i int) float64 {
	if i == 0 {
		return t0
	}
	return t0 + (t1-t0)*float64(i)/float64(crossScanDensity)
}

// crossed reports whether the grid cell from value prev to value v (both
// relative to the level) is a crossing in the requested direction.
func crossed(prev, v float64, rising bool) bool {
	return (prev < 0 && v >= 0 && rising) || (prev > 0 && v <= 0 && !rising)
}

// firstDirectionalCrossing finds the earliest crossing of level with the
// requested slope sign in [t0, t1]: it evaluates f at every grid point
// and polishes the first crossing cell with Brent. It serves solutions
// of unknown shape (SwitchGate's SolutionN) and is the reference that
// outputCrossing reproduces bit for bit.
func firstDirectionalCrossing(f func(float64) float64, level float64, rising bool, t0, t1 float64) (float64, bool) {
	if t1 <= t0 {
		return 0, false
	}
	g := func(t float64) float64 { return f(t) - level }
	prevV := g(t0)
	for i := 1; i <= crossScanDensity; i++ {
		v := g(gridTime(t0, t1, i))
		if crossed(prevV, v, rising) {
			return polishCrossing(g, gridTime(t0, t1, i-1), gridTime(t0, t1, i), v)
		}
		prevV = v
	}
	return 0, false
}

// polishCrossing returns the root of g in the crossing cell [a, b],
// where gb = g(b): b itself when gb is zero, else Brent's root.
func polishCrossing(g func(float64) float64, a, b, gb float64) (float64, bool) {
	if gb == 0 {
		return b, true
	}
	r, err := roots.Brent(g, a, b, 0)
	if err != nil {
		return 0, false
	}
	return r, true
}

// outputCrossing is firstDirectionalCrossing for V_O of a closed-form
// segment, sol.At(t - start).Y, with the same result bit for bit:
// outputCrossingCell finds the same first crossing cell after about ten
// evaluations instead of 257, and Brent polishes the same bracket.
func outputCrossing(sol *ode.Solution2, start, level float64, rising bool, t0, t1 float64) (float64, bool) {
	i, v, ok := outputCrossingCell(sol, start, level, rising, t0, t1)
	if !ok {
		return 0, false
	}
	g := func(t float64) float64 { return sol.At(t-start).Y - level }
	return polishCrossing(g, gridTime(t0, t1, i-1), gridTime(t0, t1, i), v)
}

// crossMargin scales the rounding margin of outputCrossingCell: a grid
// value beyond crossMargin·(TermBoundY + |level|) cannot have the wrong
// sign, nor can any value on a monotone stretch between two such values
// on the same side. ode bounds At's error by 8·2^-53·TermBoundY and the
// level subtraction adds 2^-53·(|V_O| + |level|), so twice the error is
// below 18·2^-53·(TermBoundY + |level|); the constant keeps a 3x reserve.
const crossMargin = 0x1p-47

// outputCrossingCell returns the first grid cell (i-1, i] of [t0, t1]
// in which firstDirectionalCrossing, applied to V_O = sol.At(t-start).Y,
// would see a crossing, together with the value V_O - level at grid
// point i. It evaluates that value exactly as the scan does, only at
// fewer grid points:
//
//   - Same grid, same values: every grid point it evaluates is computed
//     by gridTime and At exactly as the scan computes it.
//   - Monotone stretches: the exact V_O has at most one critical point
//     (ode's CriticalY places it, rounding included), so the grid points
//     before and after it form two stretches on which the exact V_O is
//     monotone. On a stretch, a run of grid points is skipped only when
//     both ends lie beyond the rounding margin (crossMargin) on the same
//     side of the level: every exact value in between lies beyond half
//     the margin, so every computed value has that sign, and a run of
//     one sign holds no crossing cell. Within a stretch the search
//     bisects over grid indices for the last point still beyond the
//     margin on the side it started on.
//   - Linear fallback: the cells around the critical point, and every
//     cell the margin cannot clear, are checked one grid point at a time
//     as the scan does. When no bound exists (an unplaceable critical
//     point, an overflowing term, a non-finite window) that covers the
//     whole window and the search is the scan.
//
// Skipped runs hold no crossing cell, and every other cell is tested on
// the two values the scan computes for it, so the first crossing cell
// found is the scan's.
//
//hybrid:noalloc
func outputCrossingCell(sol *ode.Solution2, start, level float64, rising bool, t0, t1 float64) (cell int, v float64, found bool) {
	if t1 <= t0 {
		return 0, 0, false
	}
	const n = crossScanDensity
	var s cellSearch
	s.sol, s.start, s.level, s.rising, s.t0, s.t1 = sol, start, level, rising, t0, t1
	// Grid points [0, a) precede the critical point and [b, n] follow
	// it; without a finite margin every cell is checked.
	a, b := 0, n+1
	s.margin = math.NaN()
	if finite(t0) && finite(t1) && finite(start) {
		s.margin = crossMargin * (sol.TermBoundY(t0-start, gridTime(t0, t1, n)-start) + math.Abs(level))
	}
	if s.margin < math.Inf(1) {
		lo, hi := sol.CriticalY()
		a, b = s.firstPoint(lo, false), s.firstPoint(hi, true)
	}

	cur, cv := 0, s.value(0)
	if a > 1 {
		i, v, ok := s.monotone(0, a-1, cv)
		if ok {
			return i, v, true
		}
		cur, cv = a-1, v
	}
	for end := min(b, n); cur < end; cur++ {
		v := s.value(cur + 1)
		if crossed(cv, v, rising) {
			return cur + 1, v, true
		}
		cv = v
	}
	if cur < n {
		return s.monotone(cur, n, cv)
	}
	return 0, 0, false
}

// cellSearch is the state of one outputCrossingCell query.
type cellSearch struct {
	sol          *ode.Solution2
	start, level float64
	t0, t1       float64
	rising       bool
	margin       float64 // NaN or +Inf when no rounding bound exists
}

// value is V_O - level at grid point i, computed exactly as the scan
// computes it.
func (s *cellSearch) value(i int) float64 {
	return s.sol.At(gridTime(s.t0, s.t1, i)-s.start).Y - s.level
}

// sure reports whether a and b both lie beyond the margin on the same
// side of the level.
func (s *cellSearch) sure(a, b float64) bool {
	return (a > s.margin && b > s.margin) || (a < -s.margin && b < -s.margin)
}

// firstPoint returns the first grid index whose local time is at least
// tau (greater than tau when strict), or crossScanDensity+1 if none is.
// Local times grow with the index, so a bisection finds it.
func (s *cellSearch) firstPoint(tau float64, strict bool) int {
	lo, hi := 0, crossScanDensity+1
	for lo < hi {
		mid := (lo + hi) / 2
		x := gridTime(s.t0, s.t1, mid) - s.start
		if x > tau || (!strict && x == tau) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// monotone searches the cells (p, e] of a stretch on which the exact V_O
// is monotone; cp is the value at p. It returns the first crossing cell,
// or e and the value at e when the stretch holds none.
func (s *cellSearch) monotone(p, e int, cp float64) (int, float64, bool) {
	ce := s.value(e)
	bisected := false
	for p < e {
		if s.sure(cp, ce) {
			return e, ce, false
		}
		next, cn := p+1, ce
		switch {
		case !bisected && e-p > 1 && s.sure(cp, cp):
			// cp lies beyond the margin, and so does every point up to
			// the last one beyond it on the same side: bisect for that
			// point, skipping the run before it.
			bisected = true
			hi := e
			for hi-p > 1 {
				mid := p + (hi-p)/2
				cm := s.value(mid)
				if s.sure(cp, cm) {
					p, cp = mid, cm
				} else {
					hi, cn = mid, cm
				}
			}
			next = hi
		case next < e:
			cn = s.value(next)
		}
		if crossed(cp, cn, s.rising) {
			return next, cn, true
		}
		p, cp = next, cn
	}
	return e, cp, false
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Sample evaluates the trajectory on a uniform grid (used to render
// Fig. 4-style trajectory plots and for cross-validation against the
// analog simulator).
func (tr *Trajectory) Sample(t0, t1 float64, n int) (times []float64, vn []float64, vo []float64) {
	if n < 1 {
		n = 1
	}
	times = make([]float64, n+1)
	vn = make([]float64, n+1)
	vo = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(n)
		v := tr.At(t)
		times[i] = t
		vn[i] = v.X
		vo[i] = v.Y
	}
	return times, vn, vo
}
