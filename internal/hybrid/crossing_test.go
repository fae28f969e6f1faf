package hybrid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
)

// scanOutputCrossing is the reference outputCrossing must reproduce bit
// for bit: the full grid scan over the same V_O.
func scanOutputCrossing(sol *ode.Solution2, start, level float64, rising bool, t0, t1 float64) (float64, bool) {
	return firstDirectionalCrossing(func(t float64) float64 {
		return sol.At(t - start).Y
	}, level, rising, t0, t1)
}

// assertSameCrossing fails unless outputCrossing and the reference scan
// agree bitwise on one query.
func assertSameCrossing(t *testing.T, sol *ode.Solution2, start, level float64, rising bool, t0, t1 float64) {
	t.Helper()
	got, gotOK := outputCrossing(sol, start, level, rising, t0, t1)
	want, wantOK := scanOutputCrossing(sol, start, level, rising, t0, t1)
	if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("search (%v, %v) != scan (%v, %v) for sol=%+v start=%v level=%v rising=%v window=[%v, %v]",
			got, gotOK, want, wantOK, *sol, start, level, rising, t0, t1)
	}
}

// crossingLevel picks the level of one differential case. kind 0 uses
// raw as is; the others draw the level from V_O itself so that it is
// met exactly or grazed: 1 at an interior point of the window (raw
// picks the fraction), 2 at the critical point plus raw (a tangent
// level when raw is 0), 3 at a grid point (raw picks the index).
func crossingLevel(sol *ode.Solution2, start, t0, t1 float64, kind uint8, raw float64) float64 {
	switch kind % 4 {
	case 1:
		frac := math.Abs(math.Mod(raw, 1))
		return sol.At(t0 + frac*(t1-t0) - start).Y
	case 2:
		lo, hi := sol.CriticalY()
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return raw
		}
		return sol.At((lo+hi)/2).Y + raw
	case 3:
		i := int(math.Abs(math.Mod(raw, crossScanDensity+1)))
		return sol.At(gridTime(t0, t1, i) - start).Y
	}
	return raw
}

// crossingSystem returns one of the Table I mode systems (sel 0-3) or
// the raw system (any other sel).
func crossingSystem(sel uint8, a11, a12, a21, a22, g1, g2 float64) ode.Linear2 {
	if m := int(sel % 5); m < 4 {
		return TableI().System(Mode(m))
	}
	return ode.Linear2{A: la.Mat2{A11: a11, A12: a12, A21: a21, A22: a22}, G: la.Vec2{X: g1, Y: g2}}
}

// FuzzOutputCrossing differentially checks the crossing search against
// the reference scan on random systems, states, windows and levels.
// start, off and window are in units of the solution's slowest time
// constant.
func FuzzOutputCrossing(f *testing.F) {
	vdd := TableI().Supply.VDD
	// Diagonal kind: Table I modes from physical states, monotone and
	// with V_O's critical point inside the window (Mode10 from N high,
	// O low; Mode00 from O high, N low).
	f.Add(uint8(2), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vdd, vdd, 0.0, 0.0, 60.0, vdd/2, uint8(0), false)
	f.Add(uint8(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vdd, 1.0, 0.0, 2.5, 0.37, uint8(1), false)
	f.Add(uint8(2), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vdd, 0.0, 0.0, 0.0, 60.0, 0.05, uint8(0), true)
	f.Add(uint8(2), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vdd, 0.0, 0.0, 0.0, 60.0, 0.0, uint8(2), true)
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vdd, 0.0, 0.1, 60.0, vdd/2, uint8(0), true)
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vdd, 0.0, 0.0, 3.0, 17.0, uint8(3), false)
	// Singular kind: Mode11 (V_N isolated), and a neutral mode with
	// forcing that gives V_O a critical point.
	f.Add(uint8(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vdd/2, vdd, 0.0, 0.0, 60.0, vdd/2, uint8(0), false)
	f.Add(uint8(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vdd, 2e-9, 0.1, 5.0, 0.25, uint8(1), false)
	f.Add(uint8(4), 0.0, 0.0, 1.0, -2.0, 0.5, 0.0, -1.0, 3.0, 0.0, 0.0, 20.0, 0.0, uint8(2), false)
	// Defective kind: a repeated eigenvalue with a Jordan block that
	// couples V_N into V_O.
	f.Add(uint8(4), -1e10, 0.0, 1e10, -1e10, 1e10, 3e9, 0.2, 0.9, 0.0, 0.0, 60.0, 0.5, uint8(0), false)
	f.Add(uint8(4), -2.0, 1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 60.0, 0.0, uint8(2), false)
	f.Add(uint8(4), -2.0, 1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 60.0, 0.3, uint8(1), true)
	// A level met exactly at grid point 143 of a nearly defective
	// system: a rounding margin a few bits too small skips its cell.
	f.Add(uint8(4), -1e10, 34.0, 1.4285714285714285e9, -9.999999883e9, 1e10, 2.99999995e9, 0.2, 9.0, -4.666666666666667, 36.5, 0.2361111111111111, 143.0, uint8(3), true)
	f.Fuzz(func(t *testing.T, sel uint8, a11, a12, a21, a22, g1, g2, vn, vo, start, off, window, raw float64, kind uint8, rising bool) {
		sol, err := crossingSystem(sel, a11, a12, a21, a22, g1, g2).Solve(la.Vec2{X: vn, Y: vo})
		if err != nil {
			return // complex or unsupported spectra are the solver's business
		}
		tau := sol.SlowestTimeConstant()
		if math.IsInf(tau, 1) {
			tau = 1e-9
		}
		start *= tau
		t0 := start + math.Abs(off)*tau
		t1 := t0 + window*tau
		level := crossingLevel(sol, start, t0, t1, kind, raw)
		assertSameCrossing(t, sol, start, level, rising, t0, t1)
	})
}

// TestOutputCrossingMatchesScan runs the differential check over a
// seeded batch of physical and random segments, levels included that
// graze V_O or touch it at its critical point.
func TestOutputCrossingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := TableI()
	vdd := p.Supply.VDD
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for c := 0; c < n; c++ {
		var sys ode.Linear2
		switch c % 3 {
		case 0:
			sys = p.System(Mode(rng.Intn(4)))
		case 1:
			// A random RC-like system (real spectrum) at a random time scale.
			s := math.Pow(10, 8+4*rng.Float64())
			gc := rng.Float64()
			sys = ode.Linear2{
				A: la.Mat2{A11: -(0.5 + rng.Float64() + gc) * s, A12: gc * s, A21: gc * s, A22: -(0.5 + rng.Float64() + gc) * s},
				G: la.Vec2{X: rng.Float64() * s, Y: rng.Float64() * s},
			}
		default:
			// Repeated eigenvalue -s with the Jordan part k·[[u, 1], [-u², -u]]
			// (nilpotent): the defective kind.
			s := math.Pow(10, 8+4*rng.Float64())
			k, u := rng.NormFloat64()*s, rng.NormFloat64()
			sys = ode.Linear2{
				A: la.Mat2{A11: -s + k*u, A12: k, A21: -k * u * u, A22: -s - k*u},
				G: la.Vec2{X: rng.Float64() * s, Y: rng.Float64() * s},
			}
		}
		v0 := la.Vec2{X: (rng.Float64()*1.6 - 0.3) * vdd, Y: (rng.Float64()*1.6 - 0.3) * vdd}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		tau := sol.SlowestTimeConstant()
		if math.IsInf(tau, 1) {
			tau = 1e-9
		}
		start := rng.Float64() * 1e-9
		t0 := start
		if rng.Intn(2) == 0 {
			t0 += rng.Float64() * tau
		}
		t1 := t0 + 60*tau
		if rng.Intn(2) == 0 {
			t1 = t0 + rng.ExpFloat64()*tau // a finite segment
		}
		level := crossingLevel(sol, start, t0, t1, uint8(rng.Intn(4)), rng.Float64()*vdd)
		assertSameCrossing(t, sol, start, level, rng.Intn(2) == 0, t0, t1)
	}
}

// TestOutputCrossingScanFallback covers the inputs the search cannot
// bound: non-finite windows and levels fall back to the scan's result.
func TestOutputCrossingScanFallback(t *testing.T) {
	sol, err := TableI().System(Mode10).Solve(la.Vec2{X: 0.8, Y: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct{ start, level, t0, t1 float64 }{
		{0, 0.4, 0, inf},
		{0, 0.4, math.Inf(-1), 1e-9},
		{nan, 0.4, 0, 1e-9},
		{0, nan, 0, 1e-9},
		{0, inf, 0, 1e-9},
		{0, 0.4, 1e-9, 0},
		{0, 0.4, 0, nan},
	} {
		for _, rising := range []bool{false, true} {
			assertSameCrossing(t, sol, c.start, c.level, rising, c.t0, c.t1)
		}
	}
}

// scanFirstOutputCrossing is Trajectory.FirstOutputCrossing with the
// reference scan.
func scanFirstOutputCrossing(tr *Trajectory, level float64, rising bool, after float64) (float64, bool) {
	for _, seg := range tr.segs {
		if seg.end <= after {
			continue
		}
		t0 := math.Max(seg.start, after)
		t1 := seg.end
		if math.IsInf(t1, 1) {
			tau := seg.sol.SlowestTimeConstant()
			if math.IsInf(tau, 1) {
				tau = 1e-9
			}
			t1 = t0 + 60*tau
		}
		if t, ok := scanOutputCrossing(seg.sol, seg.start, level, rising, t0, t1); ok {
			return t, true
		}
	}
	return 0, false
}

// TestApplyNORMatchesScan: the channel's output traces over seeded Fig. 7
// stimuli are bitwise those of a channel that finds every crossing with
// the reference scan.
func TestApplyNORMatchesScan(t *testing.T) {
	p := TableI()
	transitions := 200
	if testing.Short() {
		transitions = 40
	}
	events := 0
	for _, cfg := range gen.PaperConfigs() {
		cfg.Transitions = transitions
		for _, seed := range []int64{1, 2, 3} {
			in, err := gen.Traces(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			until := gen.Horizon(in, 1e-9)
			for _, vn0 := range []float64{0, p.Supply.VDD} {
				got, err := ApplyNOR(p, in[0], in[1], until, vn0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := applyNOR(p, in[0], in[1], until, vn0, scanOutputCrossing)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s seed %d vn0 %g", cfg.Name(), seed, vn0)
				if got.Initial != want.Initial || len(got.Events) != len(want.Events) {
					t.Fatalf("%s: %d events (initial %v) vs scan %d (initial %v)",
						name, len(got.Events), got.Initial, len(want.Events), want.Initial)
				}
				for i := range got.Events {
					g, w := got.Events[i], want.Events[i]
					if g.Value != w.Value || math.Float64bits(g.Time) != math.Float64bits(w.Time) {
						t.Fatalf("%s: event %d %+v vs scan %+v", name, i, g, w)
					}
				}
				events += len(got.Events)
			}
		}
	}
	if events == 0 {
		t.Fatal("no output events compared")
	}
}

// TestDelaysMatchScan: delta_fall(Delta) and delta_rise(Delta) over a
// Delta grid are bitwise those found with the reference scan.
func TestDelaysMatchScan(t *testing.T) {
	p := TableI()
	vdd, vth := p.Supply.VDD, p.Supply.Vth
	for k := -80; k <= 80; k++ {
		delta := float64(k) * 1.25e-12
		ts := math.Abs(delta)

		first := Mode10
		if delta < 0 {
			first = Mode01
		}
		tr, err := p.NewTrajectory(la.Vec2{X: vdd, Y: vdd}, []Phase{{Start: 0, Mode: first}, {Start: ts, Mode: Mode11}})
		if err != nil {
			t.Fatal(err)
		}
		tO, ok := scanFirstOutputCrossing(tr, vth, false, 0)
		got, err := p.FallingDelay(delta)
		if !ok || err != nil || math.Float64bits(got) != math.Float64bits(tO+p.DMin) {
			t.Fatalf("delta_fall(%g) = %v (%v), scan %v (ok %v)", delta, got, err, tO+p.DMin, ok)
		}

		first = Mode01
		if delta < 0 {
			first = Mode10
		}
		for _, vn := range []VNInitial{VNGround, VNHalf, VNSupply} {
			tr, err := p.NewTrajectory(la.Vec2{X: vn.Voltage(p), Y: 0}, []Phase{{Start: 0, Mode: first}, {Start: ts, Mode: Mode00}})
			if err != nil {
				t.Fatal(err)
			}
			tO, ok := scanFirstOutputCrossing(tr, vth, true, 0)
			got, err := p.RisingDelay(delta, vn)
			if !ok || err != nil || math.Float64bits(got) != math.Float64bits(tO-ts+p.DMin) {
				t.Fatalf("delta_rise(%g, %v) = %v (%v), scan %v (ok %v)", delta, vn, got, err, tO-ts+p.DMin, ok)
			}
		}
	}
}

// BenchmarkOutputCrossing times the crossing search on one segment that
// crosses V_th and one that does not; both must stay allocation-free.
func BenchmarkOutputCrossing(b *testing.B) {
	p := TableI()
	vdd, vth := p.Supply.VDD, p.Supply.Vth
	sol, err := p.System(Mode10).Solve(la.Vec2{X: vdd, Y: vdd})
	if err != nil {
		b.Fatal(err)
	}
	t1 := 60 * sol.SlowestTimeConstant()
	for _, c := range []struct {
		name   string
		rising bool
	}{{"crossing", false}, {"no-crossing", true}} {
		b.Run(c.name, func(b *testing.B) {
			if _, ok := outputCrossing(sol, 0, vth, c.rising, 0, t1); ok == c.rising {
				b.Fatalf("crossing found = %v, want %v", ok, !c.rising)
			}
			b.ReportAllocs()
			for b.Loop() {
				outputCrossing(sol, 0, vth, c.rising, 0, t1)
			}
		})
	}
}

// BenchmarkApplyNOR times the hybrid channel over one Fig. 7 stimulus
// (100/50 LOCAL, 200 transitions).
func BenchmarkApplyNOR(b *testing.B) {
	p := TableI()
	cfg := gen.PaperConfigs()[0]
	cfg.Transitions = 200
	in, err := gen.Traces(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	until := gen.Horizon(in, 1e-9)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ApplyNOR(p, in[0], in[1], until, p.Supply.VDD); err != nil {
			b.Fatal(err)
		}
	}
}
