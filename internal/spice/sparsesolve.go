package spice

import (
	"fmt"
	"math"

	"hybriddelay/internal/la"
	"hybriddelay/internal/la/sparse"
)

// rhsStamper is a linear device with a right-hand-side contribution
// that can be restamped on its own, in the same accumulation order as
// its full Stamp (for a MOSFET: as StampLinear). The sparse solver
// keeps its linear base matrix across Newton solves of equal (Dt,
// Method) and restamps only these.
type rhsStamper interface {
	stampRHS(ctx *StampContext)
}

// sparseState is the Solver's workspace for the SparseFast mode: the
// structural stamp pattern and its device slot maps, the linear base
// kept across Newton solves, the packed values the sparse kernel
// factors, and the symbolic/numeric factorization pair. Topology is
// fixed per solver, so everything but the symbolic analysis (and the
// packed values sized by it) is built exactly once.
//
// Steady-state iterations never touch the dense workspace ctx.G: they
// copy the linear base's packed values, add the MOSFET channel stamps
// at precomputed slots and refactor the packed array. ctx.G is rebuilt
// (restampSparse) only on the cold paths that need a dense matrix: the
// Markowitz pilot of a (re-)analysis, the dense partial-pivot fallback,
// and circuits holding devices without a packed stamp (nlDevs), whose
// values are gathered from ctx.G.
type sparseState struct {
	built bool

	// pattern lists the dense offsets every device stamp can touch, in
	// discovery order; pattern[i] is packed slot i of every Symbolic
	// analyzed over it (fill-in slots follow).
	pattern []int32

	linDevs []Device       // wholly linear: stamped into the base
	mos     []*MOSFET      // linear half in the base, channel per iteration
	chans   []channelSlots // packed channel slots, parallel to mos
	rhsDevs []rhsStamper   // base devices with RHS terms, in base stamp order
	nlDevs  []Device       // unknown devices: stamped densely every iteration

	// Linear base: the Jacobian and RHS of every linear stamp (linDevs,
	// then each MOSFET's StampLinear), and the Jacobian gathered into
	// pattern slots. The matrix depends only on (Dt, Method) — capacitor
	// companions' geq = c/Dt or 2c/Dt — so it is rebuilt only when they
	// change (or a new transient starts); every Newton solve restamps
	// the RHS, whose equivalent currents follow the committed state.
	linG      *la.Matrix
	linRHS    []float64
	linVals   []float64
	linValid  bool
	linDt     float64
	linMethod IntegrationMethod

	sym   *sparse.Symbolic
	num   *sparse.Numeric
	vals  []float64 // packed Jacobian, factored in place (length sym.NNZ())
	gen   uint64    // cache generation sym was obtained under (see Refresh)
	stale bool      // values drifted off the static pivot order: re-analyze
}

// sharedSymCache is the process-wide symbolic-factorization cache:
// every solver that does not inject its own cache resolves Analyze
// results through it, so pooled bench clones, batched transients and
// serve tenants working the same topology run one Markowitz pilot per
// process instead of one per solver instance. The limit comfortably
// exceeds the distinct (operating point × topology) pairs a session
// touches; colder analyses are evicted LRU-first.
var sharedSymCache = sparse.NewSymbolicCache(512)

// SharedSymbolicCache returns the process-wide symbolic-factorization
// cache (metrics surfaces and tests).
func SharedSymbolicCache() *sparse.SymbolicCache { return sharedSymCache }

// symbolicCache resolves the cache this solver analyzes through.
func (s *Solver) symbolicCache() *sparse.SymbolicCache {
	if s.symCache != nil {
		return s.symCache
	}
	return sharedSymCache
}

// sparseOptions assembles the sparse analysis options from the
// solver's configuration.
func (s *Solver) sparseOptions() sparse.Options {
	return sparse.Options{PivotRel: s.sparsePivotRel}
}

// resolveSymbolic obtains the symbolic analysis for the solver's
// pattern through the shared cache: a plain lookup on first use, a
// generation-gated Refresh after a staleness signal (so N pooled
// solvers hitting staleness together run one re-analysis — whoever
// wins replaces the shared entry, the rest adopt it as a hit). The
// pilot reads ctx.G's current values.
//
//hybrid:alloc-ok cold path: runs once per topology (or per staleness refresh), never in the per-iteration loop
func (s *Solver) resolveSymbolic() error {
	sp := &s.sp
	cache := s.symbolicCache()
	var (
		sym *sparse.Symbolic
		gen uint64
		hit bool
		err error
	)
	if sp.sym == nil {
		sym, gen, hit, err = cache.Get(s.symScope, s.ctx.G, sp.pattern, s.sparseOptions())
	} else {
		sym, gen, hit, err = cache.Refresh(s.symScope, s.ctx.G, sp.pattern, s.sparseOptions(), sp.gen)
	}
	if err != nil {
		return err
	}
	if hit {
		s.stats.SymbolicHits++
	} else {
		s.stats.SymbolicMisses++
	}
	if sym != sp.sym {
		sp.sym = sym
		sp.num = sym.NewNumeric()
		sp.vals = make([]float64, sym.NNZ())
	}
	sp.gen = gen
	sp.stale = false
	return nil
}

// ensureSparse builds the structural pattern, the device partition and
// the MOSFET channel slot maps. The pattern is derived from device
// topology, not stamped values: a MOSFET in cutoff stamps numeric zeros
// at structurally live positions, so value-based extraction would
// under-approximate.
//
//hybrid:alloc-ok one-time topology build, guarded by sp.built; never re-runs in the iteration loop
func (s *Solver) ensureSparse() {
	sp := &s.sp
	if sp.built {
		return
	}
	c := s.c
	n := c.unknowns()
	slotOf := make([]int32, n*n)
	for i := range slotOf {
		slotOf[i] = -1
	}
	add := func(i, j int) {
		if i >= 0 && j >= 0 && slotOf[i*n+j] < 0 {
			slotOf[i*n+j] = int32(len(sp.pattern))
			sp.pattern = append(sp.pattern, int32(i*n+j))
		}
	}
	block := func(vars []int) {
		for _, i := range vars {
			for _, j := range vars {
				add(i, j)
			}
		}
	}
	var vars [8]int
	nodeBlock := func(nodes []NodeID) {
		v := vars[:0]
		for _, nd := range nodes {
			v = append(v, nodeVar(nd))
		}
		block(v)
	}
	for _, d := range c.devices {
		switch dev := d.(type) {
		case *MOSFET:
			// Channel partials cover rows {d,s} × cols {d,g,s}; gmin and
			// cgs/cgd/cdb stay inside the {d,g,s} block as well.
			nodeBlock(dev.Nodes())
			sp.mos = append(sp.mos, dev)
		case *Resistor:
			nodeBlock(dev.Nodes())
			sp.linDevs = append(sp.linDevs, dev)
		case *Capacitor:
			nodeBlock(dev.Nodes())
			sp.linDevs = append(sp.linDevs, dev)
		case *VSource:
			ib := c.branchVar(dev.branch)
			ip, im := nodeVar(dev.plus), nodeVar(dev.minus)
			add(ip, ib)
			add(im, ib)
			add(ib, ip)
			add(ib, im)
			sp.linDevs = append(sp.linDevs, dev)
		case *ISource:
			sp.linDevs = append(sp.linDevs, dev) // RHS only
		default:
			// Unknown device: assume it may depend on the iterate and
			// stamps within the block of its declared nodes (the
			// contract of the generic stamp helpers).
			nodeBlock(d.Nodes())
			sp.nlDevs = append(sp.nlDevs, d)
		}
	}
	slot := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return -1
		}
		return slotOf[i*n+j]
	}
	for _, d := range sp.linDevs {
		if r, ok := d.(rhsStamper); ok {
			sp.rhsDevs = append(sp.rhsDevs, r)
		}
	}
	for _, m := range sp.mos {
		iD, iG, iS := nodeVar(m.d), nodeVar(m.g), nodeVar(m.s)
		sp.chans = append(sp.chans, channelSlots{
			jac: [6]int32{slot(iD, iD), slot(iD, iG), slot(iD, iS), slot(iS, iD), slot(iS, iG), slot(iS, iS)},
			d:   int32(iD),
			s:   int32(iS),
		})
		sp.rhsDevs = append(sp.rhsDevs, m)
	}
	sp.linG = la.NewMatrix(n, n)
	sp.linRHS = make([]float64, n)
	sp.linVals = make([]float64, len(sp.pattern))
	sp.built = true
}

// stampLinearBase prepares the linear base for one Newton solve. When
// the previous solve ran at the same (Dt, Method), its matrix is kept
// and only the RHS is restamped, device by device in base order;
// otherwise the whole base is restamped and regathered into pattern
// slots. capFresh makes the capacitor companion models recompute
// geq/ieq for this step's (Dt, Method, state) either way; the cached
// values are also what Commit consumes after acceptance, exactly as on
// the dense path.
func (s *Solver) stampLinearBase(v []float64) {
	sp := &s.sp
	ctx := &s.ctx
	gSave, rhsSave := ctx.G, ctx.RHS
	ctx.G, ctx.RHS = sp.linG, sp.linRHS
	for i := range sp.linRHS {
		sp.linRHS[i] = 0
	}
	ctx.V = v
	ctx.capFresh = true
	if sp.linValid && ctx.Dt == sp.linDt && ctx.Method == sp.linMethod {
		for _, d := range sp.rhsDevs {
			d.stampRHS(ctx)
		}
		s.stats.LinearBaseReuses++
	} else {
		for _, off := range sp.pattern {
			sp.linG.Data[off] = 0
		}
		for _, d := range sp.linDevs {
			d.Stamp(ctx)
		}
		for _, m := range sp.mos {
			m.StampLinear(ctx)
		}
		for i, off := range sp.pattern {
			sp.linVals[i] = sp.linG.Data[off]
		}
		sp.linValid, sp.linDt, sp.linMethod = true, ctx.Dt, ctx.Method
	}
	ctx.G, ctx.RHS = gSave, rhsSave
}

// stampPacked builds the packed Jacobian and the RHS for the iterate v:
// the linear base's pattern slots, zeroed fill slots, and the MOSFET
// channels stamped at their precomputed slots — per position the same
// sums, in the same order, as restampSparse produces in ctx.G.
//
//hybrid:noalloc
func (s *Solver) stampPacked(v []float64) {
	sp := &s.sp
	vals, rhs := sp.vals, s.ctx.RHS
	copy(vals, sp.linVals)
	fill := vals[len(sp.linVals):]
	for i := range fill {
		fill[i] = 0
	}
	copy(rhs, sp.linRHS)
	for i, m := range sp.mos {
		m.stampChannel(vals, rhs, v, &sp.chans[i])
	}
}

// restampSparse rebuilds the dense workspace ctx.G and ctx.RHS for the
// iterate v from the linear base, for the cold paths that need a dense
// matrix (the symbolic pilot, the dense fallback, devices without a
// packed stamp). The matrix is reset in full first: a dense
// factorization leaves LU residue everywhere, and positions outside
// the pattern must read as zeros to a later dense solve or re-analysis.
func (s *Solver) restampSparse(v []float64, firstIter bool) {
	sp := &s.sp
	ctx := &s.ctx
	g := ctx.G
	g.Zero()
	for _, off := range sp.pattern {
		g.Data[off] = sp.linG.Data[off]
	}
	copy(ctx.RHS, sp.linRHS)
	ctx.V = v
	ctx.capFresh = firstIter
	for _, m := range sp.mos {
		m.StampNonlinear(ctx)
	}
	for _, d := range sp.nlDevs {
		d.Stamp(ctx)
	}
}

// newtonSparse is the SparseFast Newton iteration for transient steps:
// same damped update and convergence test as the dense reference, but
// the linear device stamps come from the kept linear base, the
// iteration stamps and factors packed values with the static-pivot
// sparse kernel, and a degraded scheduled pivot falls back to the
// dense partial-pivot kernel (scheduling a re-analysis).
//
// Allocation-free in the steady state (the one-time topology build and
// cold symbolic resolution are //hybrid:alloc-ok): enforced statically
// by hybridlint's noalloc analyzer and dynamically by CI's -benchmem
// gates on BenchmarkSolverNewtonSparse and BenchmarkSparseFactorSolve.
//
//hybrid:noalloc
func (s *Solver) newtonSparse(v []float64, opt NewtonOptions) error {
	opt.defaults()
	s.ensure()
	s.ensureSparse()
	sp := &s.sp
	c := s.c
	n := c.unknowns()
	nv := c.NumNodes() - 1
	ctx := &s.ctx
	// Hoist the source evaluation: every iteration of this solve stamps
	// at the same ctx.Time.
	for i, vs := range c.vsources {
		s.srcVals[i] = vs.Signal(ctx.Time)
	}
	ctx.srcVals = s.srcVals
	s.stampLinearBase(v)

	xNew := s.xNew
	for iter := 0; iter < opt.MaxIter; iter++ {
		if iter > 0 {
			s.stats.LinearReuses++
		}
		// ctx.G holds this iterate's Jacobian only where a cold path
		// needs it.
		dense := sp.sym == nil || sp.stale || len(sp.nlDevs) > 0
		if dense {
			s.restampSparse(v, iter == 0)
		}
		if sp.sym == nil || sp.stale {
			if err := s.resolveSymbolic(); err != nil && sp.sym == nil {
				// Nothing to refactor over; only the dense kernel can
				// decide whether this iterate is genuinely singular.
				sp.stale = true
			}
		}
		solved := false
		if sp.sym != nil && !sp.stale {
			if dense {
				sp.sym.Pack(sp.vals, ctx.G)
			} else {
				s.stampPacked(v)
			}
			if err := sp.num.FactorSolve(sp.vals, xNew, ctx.RHS); err == nil {
				solved = true
				s.stats.Factorizations++
				s.stats.SparseFactorizations++
			} else {
				// Static pivot order no longer stable for these values:
				// let dense partial pivoting finish this iteration.
				s.stats.SparseFallbacks++
				sp.stale = true
			}
		}
		if !solved {
			if !dense {
				s.restampSparse(v, iter == 0)
			}
			if err := s.lu.FactorSolveInPlace(ctx.G, xNew, ctx.RHS); err != nil {
				return fmt.Errorf("spice: MNA matrix singular at t=%g: %w", ctx.Time, err)
			}
			s.stats.Factorizations++
		}
		s.stats.Iterations++
		// Damped update with convergence check on node voltages — the
		// same update as the dense reference.
		maxDelta := 0.0
		maxV := 0.0
		for i := 0; i < n; i++ {
			d := xNew[i] - v[i]
			if i < nv { // voltage unknowns only for damping
				if d > opt.Damping {
					d = opt.Damping
				} else if d < -opt.Damping {
					d = -opt.Damping
				}
			}
			v[i] += d
			if i < nv {
				if a := math.Abs(d); a > maxDelta {
					maxDelta = a
				}
				if a := math.Abs(v[i]); a > maxV {
					maxV = a
				}
			}
		}
		if maxDelta <= opt.AbsTol+opt.RelTol*maxV {
			return nil
		}
	}
	return fmt.Errorf("spice: Newton did not converge at t=%g", ctx.Time)
}
