package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/la"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/session"
	"hybriddelay/internal/waveform"
)

// benchParams returns the calibrated testbench parameters; -fast uses a
// coarser integrator step.
func benchParams(opt options) nor.Params {
	p := nor.DefaultParams()
	if opt.fast {
		p.MaxStep = 8e-12
	}
	return p
}

// goldenBench builds the calibrated golden-reference NOR bench.
func goldenBench(opt options) (*gate.AnalogBench, error) {
	return gate.NewAnalogBench(gate.NOR2, benchParams(opt))
}

// deltaGrid returns the MIS sweep grid in seconds.
func deltaGrid(opt options, limPs, stepPs float64) []float64 {
	if opt.fast {
		stepPs *= 3
	}
	var out []float64
	for d := -limPs; d <= limPs+1e-9; d += stepPs {
		out = append(out, waveform.Ps(d))
	}
	return out
}

func toPsSlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = waveform.ToPs(x)
	}
	return out
}

// measuredTarget measures the golden characteristic delays.
func measuredTarget(b *gate.AnalogBench) (hybrid.Characteristic, error) {
	m, err := b.Measure()
	return m.Pair, err
}

// runFig2Wave prints the analog waveforms of Fig. 2a (falling output,
// Delta = 10 ps) and Fig. 2c (rising output, Delta = 40 ps).
func runFig2Wave(opt options) error {
	b, err := goldenBench(opt)
	if err != nil {
		return err
	}
	fall, err := b.FallingWaveforms(10e-12)
	if err != nil {
		return err
	}
	rise, err := b.RisingWaveforms(40e-12, 0)
	if err != nil {
		return err
	}
	render := func(title string, r *gate.Waveforms) {
		n := 160
		t0, t1 := r.Out.Start(), r.Out.End()
		xs := make([]float64, n+1)
		mk := func(w *waveform.Waveform) []float64 {
			ys := make([]float64, n+1)
			for i := 0; i <= n; i++ {
				tm := t0 + (t1-t0)*float64(i)/float64(n)
				xs[i] = waveform.ToPs(tm)
				ys[i] = w.At(tm)
			}
			return ys
		}
		ss := []series{
			{name: "VA", marker: 'a', xs: xs, ys: mk(r.In[0])},
			{name: "VB", marker: 'b', xs: xs, ys: mk(r.In[1])},
			{name: "VO", marker: 'O', xs: xs, ys: mk(r.Out)},
			{name: "VN", marker: 'n', xs: xs, ys: mk(r.Internal[0])},
		}
		if opt.csv {
			fmt.Printf("# %s\n%s", title, csvOut("t_ps", ss))
		} else {
			fmt.Print(asciiPlot(title, "time [ps]", "voltage [V]", 100, 20, ss))
		}
	}
	render("Fig. 2a — falling output transition (Delta = 10 ps)", fall)
	render("Fig. 2c — rising output transition (Delta = 40 ps)", rise)
	return nil
}

// runFig2Fall prints the golden falling MIS sweep (Fig. 2b).
func runFig2Fall(opt options) error {
	b, err := goldenBench(opt)
	if err != nil {
		return err
	}
	deltas := deltaGrid(opt, 60, 5)
	pts, err := b.FallingSweep(deltas)
	if err != nil {
		return err
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = waveform.ToPs(p.Delta)
		ys[i] = waveform.ToPs(p.Delay)
	}
	s := []series{{name: "delta_fall_S", marker: '*', xs: xs, ys: ys}}
	if opt.csv {
		fmt.Print(csvOut("delta_ps", s))
	} else {
		fmt.Print(asciiPlot("Fig. 2b — golden falling MIS delay", "Delta [ps]", "delay [ps]", 90, 18, s))
		min, tail := ys[0], ys[0]
		for _, y := range ys {
			if y < min {
				min = y
			}
		}
		fmt.Printf("speed-up at Delta=0: %.1f%% (paper: ~-28%%)\n", 100*(findAt(xs, ys, 0)-tail)/tail)
		_ = min
	}
	return nil
}

func findAt(xs, ys []float64, x float64) float64 {
	best, bv := 0, 1e300
	for i := range xs {
		d := xs[i] - x
		if d < 0 {
			d = -d
		}
		if d < bv {
			bv, best = d, i
		}
	}
	return ys[best]
}

// runFig2Rise prints the golden rising MIS sweep (Fig. 2d).
func runFig2Rise(opt options) error {
	b, err := goldenBench(opt)
	if err != nil {
		return err
	}
	deltas := deltaGrid(opt, 60, 5)
	pts, err := b.RisingSweep(deltas, 0)
	if err != nil {
		return err
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = waveform.ToPs(p.Delta)
		ys[i] = waveform.ToPs(p.Delay)
	}
	s := []series{{name: "delta_rise_S", marker: '*', xs: xs, ys: ys}}
	if opt.csv {
		fmt.Print(csvOut("delta_ps", s))
	} else {
		fmt.Print(asciiPlot("Fig. 2d — golden rising MIS delay", "Delta [ps]", "delay [ps]", 90, 18, s))
	}
	return nil
}

// runFig4 prints the hybrid mode trajectories from the paper's initial
// values (Fig. 4), using the Table I parameters.
func runFig4(opt options) error {
	p := hybrid.TableI()
	vdd := p.Supply.VDD
	cases := []struct {
		name string
		mode hybrid.Mode
		v0   la.Vec2
	}{
		{"(0,0)", hybrid.Mode00, la.Vec2{X: 0, Y: 0}},
		{"(0,1)", hybrid.Mode01, la.Vec2{X: vdd, Y: vdd}},
		{"(1,0)", hybrid.Mode10, la.Vec2{X: vdd, Y: vdd}},
		{"(1,1)", hybrid.Mode11, la.Vec2{X: vdd / 2, Y: vdd}},
	}
	var ss []series
	markers := []byte{'0', '1', '2', '3'}
	for i, c := range cases {
		tr, err := p.NewTrajectory(c.v0, []hybrid.Phase{{Start: 0, Mode: c.mode}})
		if err != nil {
			return err
		}
		times, vn, vo := tr.Sample(0, 150e-12, 150)
		ss = append(ss,
			series{name: "VO" + c.name, marker: markers[i], xs: toPsSlice(times), ys: vo},
			series{name: "VN" + c.name, marker: '.', xs: toPsSlice(times), ys: vn},
		)
	}
	if opt.csv {
		fmt.Print(csvOut("t_ps", ss))
	} else {
		fmt.Print(asciiPlot("Fig. 4 — temporal evolution of all mode systems (Table I)",
			"time [ps]", "voltage [V]", 100, 22, ss))
	}
	return nil
}

// runTable1 measures the golden characteristic delays and fits the
// hybrid model, printing the Table I analogue.
func runTable1(opt options) error {
	b, err := goldenBench(opt)
	if err != nil {
		return err
	}
	start := time.Now()
	target, err := measuredTarget(b)
	if err != nil {
		return err
	}
	p, rep, err := hybrid.FitCharacteristic(target, b.Params().Supply, nil)
	if err != nil {
		return err
	}
	fmt.Printf("golden characteristic delays [ps]:\n")
	fmt.Printf("  fall(-inf)=%.2f fall(0)=%.2f fall(+inf)=%.2f\n",
		waveform.ToPs(target.FallMinusInf), waveform.ToPs(target.FallZero), waveform.ToPs(target.FallPlusInf))
	fmt.Printf("  rise(-inf)=%.2f rise(0)=%.2f rise(+inf)=%.2f\n",
		waveform.ToPs(target.RiseMinusInf), waveform.ToPs(target.RiseZero), waveform.ToPs(target.RisePlusInf))
	fmt.Printf("\nTable I (this testbench):\n")
	fmt.Printf("  Parameter  Value\n")
	fmt.Printf("  R1         %10.3f kΩ\n", p.R1/1e3)
	fmt.Printf("  R2         %10.3f kΩ\n", p.R2/1e3)
	fmt.Printf("  R3         %10.3f kΩ\n", p.R3/1e3)
	fmt.Printf("  R4         %10.3f kΩ\n", p.R4/1e3)
	fmt.Printf("  CN         %10.3f aF\n", p.CN/1e-18)
	fmt.Printf("  CO         %10.3f aF\n", p.CO/1e-18)
	fmt.Printf("  δmin       %10.3f ps (auto; paper: 18 ps for its ratio)\n", waveform.ToPs(rep.DMin))
	fmt.Printf("\nachieved [ps]: fall %.2f/%.2f/%.2f rise %.2f/%.2f/%.2f (cost %.3g, %d evals, %.1fs)\n",
		waveform.ToPs(rep.Achieved.FallMinusInf), waveform.ToPs(rep.Achieved.FallZero), waveform.ToPs(rep.Achieved.FallPlusInf),
		waveform.ToPs(rep.Achieved.RiseMinusInf), waveform.ToPs(rep.Achieved.RiseZero), waveform.ToPs(rep.Achieved.RisePlusInf),
		rep.Cost, rep.Evals, time.Since(start).Seconds())
	fmt.Printf("\npaper Table I reference: %s\n", hybrid.TableI())
	return nil
}

// runFig5 compares the fitted hybrid model's falling MIS delays against
// the golden sweep (Fig. 5).
func runFig5(opt options) error {
	b, err := goldenBench(opt)
	if err != nil {
		return err
	}
	target, err := measuredTarget(b)
	if err != nil {
		return err
	}
	p, _, err := hybrid.FitCharacteristic(target, b.Params().Supply, nil)
	if err != nil {
		return err
	}
	deltas := deltaGrid(opt, 60, 5)
	goldenPts, err := b.FallingSweep(deltas)
	if err != nil {
		return err
	}
	modelPts, err := p.FallingSweep(deltas)
	if err != nil {
		return err
	}
	xs := toPsSlice(deltas)
	gold := make([]float64, len(goldenPts))
	model := make([]float64, len(modelPts))
	for i := range goldenPts {
		gold[i] = waveform.ToPs(goldenPts[i].Delay)
		model[i] = waveform.ToPs(modelPts[i].Delay)
	}
	ss := []series{
		{name: "delta_fall_S (golden)", marker: '*', xs: xs, ys: gold},
		{name: "delta_fall_M (hybrid)", marker: 'o', xs: xs, ys: model},
	}
	if opt.csv {
		fmt.Print(csvOut("delta_ps", ss))
	} else {
		fmt.Print(asciiPlot("Fig. 5 — falling MIS delays: hybrid model vs golden",
			"Delta [ps]", "delay [ps]", 90, 18, ss))
	}
	return nil
}

// runFig6 prints the hybrid rising delays for the three V_N initial
// values against the golden sweep (Fig. 6).
func runFig6(opt options) error {
	b, err := goldenBench(opt)
	if err != nil {
		return err
	}
	target, err := measuredTarget(b)
	if err != nil {
		return err
	}
	p, _, err := hybrid.FitCharacteristic(target, b.Params().Supply, nil)
	if err != nil {
		return err
	}
	deltas := deltaGrid(opt, 90, 7.5)
	goldenPts, err := b.RisingSweep(deltas, 0)
	if err != nil {
		return err
	}
	xs := toPsSlice(deltas)
	gold := make([]float64, len(goldenPts))
	for i := range goldenPts {
		gold[i] = waveform.ToPs(goldenPts[i].Delay)
	}
	ss := []series{{name: "delta_rise_S (golden)", marker: '*', xs: xs, ys: gold}}
	for _, vn := range []hybrid.VNInitial{hybrid.VNGround, hybrid.VNHalf, hybrid.VNSupply} {
		pts, err := p.RisingSweep(deltas, vn)
		if err != nil {
			return err
		}
		ys := make([]float64, len(pts))
		for i := range pts {
			ys[i] = waveform.ToPs(pts[i].Delay)
		}
		marker := byte('g')
		switch vn {
		case hybrid.VNHalf:
			marker = 'h'
		case hybrid.VNSupply:
			marker = 'v'
		}
		ss = append(ss, series{name: "HM VN=" + vn.String(), marker: marker, xs: xs, ys: ys})
	}
	if opt.csv {
		fmt.Print(csvOut("delta_ps", ss))
	} else {
		fmt.Print(asciiPlot("Fig. 6 — rising MIS delays: hybrid model (3 V_N values) vs golden",
			"Delta [ps]", "delay [ps]", 90, 18, ss))
		fmt.Println("note: the model is flat for Delta <= 0 at VN=GND — the deficiency §IV reports.")
	}
	return nil
}

// runFig7 runs the deviation-area accuracy comparison (Fig. 7) for the
// selected -gate through one Session per invocation: the engine
// prepares (and memoizes) the operating point and fans the units
// across its worker pool.
func runFig7(opt options) error {
	g, err := opt.gateSpec()
	if err != nil {
		return err
	}
	solver, err := opt.solverMode()
	if err != nil {
		return err
	}
	p := benchParams(opt)
	p.Solver = solver
	seeds, err := opt.seedList()
	if err != nil {
		return err
	}
	configs := gen.PaperConfigs()
	for i := range configs {
		configs[i].Inputs = g.Arity()
		if opt.trans > 0 {
			configs[i].Transitions = opt.trans
		} else if opt.fast {
			configs[i].Transitions /= 4
		}
	}
	out := opt.w()
	workers := opt.parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if units := len(configs) * len(seeds); workers > units {
		workers = units // the engine never spawns more workers than units
	}
	st, finishStore, err := openStore(opt.store, os.Stderr)
	if err != nil {
		return err
	}
	defer finishStore()
	job := session.GateJob{
		Gate: g.Name(), Params: &p,
		Configs: configs, Seeds: seeds,
		ExpDMin: 20e-12,
		// No golden cache: every (config, seed) unit in a single fig7
		// run is unique, so memoization could never hit within one CLI
		// invocation — it would only hold every trace in memory. With a
		// -store directory the cache stays on as the read-through front
		// of the persistent tier, so repeat runs warm-start from disk.
		NoCache: opt.store == "",
	}
	if !opt.csv {
		// Progress goes to stderr so redirected stdout stays clean.
		job.Progress = func(p session.Progress) {
			fmt.Fprintf(os.Stderr, "\r%-20s seed %-6d %d/%d units", p.Config.Name(), p.Seed, p.Completed, p.Total)
		}
	}
	start := time.Now()
	sopt := session.Options{Workers: workers}
	if st != nil {
		sopt.Store = st
	}
	s := session.New(sopt)
	jres, err := s.Evaluate(context.Background(), job)
	if !opt.csv {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	reportSolver(os.Stderr, jres.Stats.Solver)
	results := jres.Gate
	if g.Name() != gate.Default().Name() {
		// The default gate keeps the historical output byte-for-byte; other
		// gates announce themselves. In CSV mode the banner goes to stderr
		// like the progress lines, so redirected stdout stays pure CSV.
		w := out
		if opt.csv {
			w = os.Stderr
		}
		fmt.Fprintf(w, "gate: %s (%d inputs), hybrid fit: %s\n", g.Name(), g.Arity(), jres.Models.HM)
	}
	groups := []string{}
	vals := map[string][]float64{}
	for _, name := range eval.ModelNames {
		vals[name] = nil
	}
	for _, res := range results {
		groups = append(groups, res.Config.Name())
		for _, name := range eval.ModelNames {
			vals[name] = append(vals[name], res.Normalized[name])
		}
		if !opt.csv {
			fmt.Fprintf(out, "%-20s golden events: %d\n", res.Config.Name(), res.GoldenEv)
		}
	}
	if !opt.csv {
		fmt.Fprintf(out, "%d units on %d workers in %.1fs\n", len(configs)*len(seeds), workers, time.Since(start).Seconds())
	}
	if opt.csv {
		fmt.Fprint(out, "config")
		for _, n := range eval.ModelNames {
			fmt.Fprintf(out, ",%s", n)
		}
		fmt.Fprintln(out)
		for gi, g := range groups {
			fmt.Fprintf(out, "%q", g)
			for _, n := range eval.ModelNames {
				fmt.Fprintf(out, ",%g", vals[n][gi])
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, barChart("Fig. 7 — normalized deviation area (lower is better, inertial = 1)",
		groups, eval.ModelNames, vals, 40))
	return nil
}

// runFig8 compares the hybrid model's falling delays with and without
// the pure delay against the golden sweep (Fig. 8).
func runFig8(opt options) error {
	b, err := goldenBench(opt)
	if err != nil {
		return err
	}
	target, err := measuredTarget(b)
	if err != nil {
		return err
	}
	withD, _, err := hybrid.FitCharacteristic(target, b.Params().Supply, nil)
	if err != nil {
		return err
	}
	tailW := []float64{3, 1, 3, 3, 1, 3}
	without, _, err := hybrid.FitCharacteristic(target, b.Params().Supply, &hybrid.FitOptions{DMin: 0, Weights: tailW})
	if err != nil {
		return err
	}
	deltas := deltaGrid(opt, 60, 5)
	goldenPts, err := b.FallingSweep(deltas)
	if err != nil {
		return err
	}
	a, err := withD.FallingSweep(deltas)
	if err != nil {
		return err
	}
	c, err := without.FallingSweep(deltas)
	if err != nil {
		return err
	}
	xs := toPsSlice(deltas)
	mk := func(pts []hybrid.SweepPoint) []float64 {
		out := make([]float64, len(pts))
		for i := range pts {
			out[i] = waveform.ToPs(pts[i].Delay)
		}
		return out
	}
	gold := make([]float64, len(goldenPts))
	for i := range goldenPts {
		gold[i] = waveform.ToPs(goldenPts[i].Delay)
	}
	ss := []series{
		{name: "golden", marker: '*', xs: xs, ys: gold},
		{name: "HM with δmin", marker: 'o', xs: xs, ys: mk(a)},
		{name: "HM without δmin", marker: 'x', xs: xs, ys: mk(c)},
	}
	if opt.csv {
		fmt.Print(csvOut("delta_ps", ss))
	} else {
		fmt.Print(asciiPlot("Fig. 8 — falling delays: pure delay ablation",
			"Delta [ps]", "delay [ps]", 90, 18, ss))
	}
	return nil
}

// runCharlie compares the closed-form characteristic Charlie delay
// formulas (8)-(12) against the exact trajectory solver.
func runCharlie(opt options) error {
	p := hybrid.TableI()
	exact, err := p.Characteristic()
	if err != nil {
		return err
	}
	formula, err := p.CharlieCharacteristic()
	if err != nil {
		return err
	}
	names := []string{"fall(-inf)", "fall(0)", "fall(+inf)", "rise(-inf)", "rise(0)", "rise(+inf)"}
	eqs := []string{"eq (9) exact", "eq (8) exact", "eq (10)", "eq (12)", "eq (11)", "eq (11)"}
	e := exact.AsSlice()
	f := formula.AsSlice()
	fmt.Println("Table I parameters — closed forms vs exact crossing solver [ps]:")
	fmt.Printf("  %-11s %-13s %10s %10s %12s\n", "delay", "formula", "closed", "exact", "error [fs]")
	for i := range names {
		fmt.Printf("  %-11s %-13s %10.3f %10.3f %12.2f\n",
			names[i], eqs[i], waveform.ToPs(f[i]), waveform.ToPs(e[i]), (f[i]-e[i])/1e-15)
	}
	lit, err := p.CharlieFallPlusInfAtW(hybrid.PaperW10)
	if err == nil {
		fmt.Printf("\nliteral eq (10) at the printed w = 100 ps: %.2f ps (exact %.2f ps)\n",
			waveform.ToPs(lit), waveform.ToPs(e[2]))
		fmt.Println("  -> the printed expansion point predates the Table I time constants;")
		fmt.Println("     this repo uses the slow-mode estimate as the expansion point (see DESIGN.md).")
	}
	return nil
}
