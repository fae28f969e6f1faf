package main

import (
	"math"
	"time"

	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
)

// End-to-end metric units, by name (BENCHMARK.json's end_to_end).
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"units_per_s": "1/s",
	"job_p50_ms":  "ms",
	"job_tail_ms": "ms",
	"rss_peak_mb": "MB",
}

// Per-layer metric units, by name (BENCHMARK.json's per_layer); the
// cpu.<module> shares are added from cpuModules and cpuGroups.
var perLayerUnits = map[string]string{
	"serve.submit_ms":                   "ms",
	"serve.queue_ms":                    "ms",
	"serve.overhead_ms":                 "ms",
	"serve.retries_429":                 "count",
	"loadgen.late_ms":                   "ms",
	"session.evaluate_ms.gate":          "ms",
	"session.evaluate_ms.circuit":       "ms",
	"session.evaluate_ms.sweep":         "ms",
	"pool.busy_ratio":                   "ratio",
	"eval.prepare_ms":                   "ms",
	"eval.param_hits":                   "count",
	"eval.param_misses":                 "count",
	"eval.golden_ms":                    "ms",
	"eval.golden_hit_ratio":             "ratio",
	"eval.golden_disk_hits":             "count",
	"eval.golden_evictions":             "count",
	"eval.models_ms":                    "ms",
	"eval.score_ms":                     "ms",
	"gen.stimulus_ms":                   "ms",
	"hybrid.apply_ms":                   "ms",
	"store.load_ms":                     "ms",
	"store.save_ms":                     "ms",
	"store.writes":                      "count",
	"store.write_bytes":                 "bytes",
	"spice.steps_per_unit":              "count",
	"spice.reject_ratio":                "ratio",
	"spice.newton_per_step":             "count",
	"spice.ns_per_newton":               "ns",
	"la.factorizations_per_unit":        "count",
	"la.sparse.factorizations_per_unit": "count",
	"la.sparse.fallbacks":               "count",
	"la.sparse.linear_reuse_ratio":      "ratio",
	"la.sparse.symbolic_hits":           "count",
	"la.sparse.symbolic_misses":         "count",
	"la.sparse.supernodes":              "count",
	"netlist.models_ms":                 "ms",
	"runtime.gc_pause_ms":               "ms",
	"runtime.alloc_mb_per_unit":         "MB",
	"trace.golden_share":                "ratio",
	"trace.model_share":                 "ratio",
	"trace.unattributed_share":          "ratio",
	"trace.overhead_job_p50":            "ratio",
	"trace.overhead_units_per_s":        "ratio",
}

func init() {
	for _, b := range append(append([]string(nil), cpuModules...), cpuGroups...) {
		perLayerUnits["cpu."+b] = "ratio"
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// summarize turns the window's jobs, counters and spans into the
// result line and the descriptive info line.
func (m *meter) summarize(o options, e *env, jobs []*job, setups []setupTime, spans []Span) (result, map[string]any) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var (
		lat, latRef, untracedEval, tracedEval, late []float64
		units, fresh, untracedUnits, tracedUnits    int
		untracedWall, tracedWall                    float64
		busy                                        [][2]int64
		byKind                                      = map[string][]float64{}
	)
	for _, j := range jobs {
		res.Attempted++
		if j.err != nil {
			res.Failed++
			continue
		}
		units += j.units
		fresh += j.fresh
		busy = append(busy, [2]int64{int64(j.sent.Sub(jobs[0].sched)), int64(j.end.Sub(jobs[0].sched))})
		late = append(late, ms(j.sent.Sub(j.sched)))
		if j.traced {
			tracedEval = append(tracedEval, j.evalMs)
			tracedUnits += j.units
			tracedWall += j.evalMs
			continue
		}
		l := j.latencyMs()
		lat = append(lat, l)
		latRef = append(latRef, l*m.speed.scaleAt(j.sched.Add(j.end.Sub(j.sched)/2)))
		byKind[string(j.kind)] = append(byKind[string(j.kind)], l)
		untracedEval = append(untracedEval, j.evalMs)
		untracedUnits += j.units
		untracedWall += j.evalMs
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	d := delta(m.before, m.after)
	lookups := d.golden.Hits + d.golden.Misses
	rawTail, tailP, tailOK := tail(lat)
	setupS := make([]float64, len(setups))
	rawSetupS := make([]float64, len(setups))
	for k, s := range setups {
		setupS[k] = s.Seconds * s.Scale
		rawSetupS[k] = s.Seconds
	}
	// Units per second of busy time: time in which at least one job
	// was between its send and its completion. On the closed loops
	// that is the window; on serve-warm it leaves out the idle gaps of
	// the send schedule, so the figure moves with the program, not
	// with the offered rate.
	rawUnitsPerS := ratio(float64(units), float64(unionLen(busy))/1e9)
	info := map[string]any{
		"workload":          o.workload,
		"seed":              o.seed,
		"traced":            o.trace,
		"machine":           machineShape(),
		"cpu_steal_share":   m.stealShare(),
		"workers":           e.workers,
		"setup_s_samples":   setupS,
		"setups":            setups,
		"speed_scale":       m.speed.scale(),
		"speed_samples":     len(m.speed.samples),
		"raw_setup_s":       median(rawSetupS),
		"raw_units_per_s":   rawUnitsPerS,
		"raw_job_p50_ms":    median(lat),
		"raw_job_tail_ms":   rawTail,
		"jobs":              len(jobs),
		"units":             units,
		"fresh_unit_share":  ratio(float64(fresh), float64(units)),
		"memory_hit_share":  ratio(float64(d.golden.Hits), float64(lookups)),
		"disk_hit_share":    ratio(float64(d.golden.DiskHits), float64(lookups)),
		"computed_share":    ratio(float64(d.golden.Misses-d.golden.DiskHits), float64(lookups)),
		"late_ms_mean":      mean(late),
		"late_ms_max":       maxOf(late),
		"job_tail_pct":      tailP,
		"job_tail_samples":  len(lat),
		"job_tail_beyond":   minBeyond,
		"job_tail_rule_met": tailOK,
	}
	for _, k := range []session.Kind{session.KindGate, session.KindCircuit, session.KindSweep} {
		if l := byKind[string(k)]; len(l) > 0 {
			info["job_p50_ms_"+string(k)] = median(l)
			info["jobs_"+string(k)] = len(l)
		}
	}
	if !o.trace {
		set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]} }
		// Every time is brought to the reference speed (speed.go). The
		// median takes each job at the speed near it, which removes
		// bursts; the tail, an extreme order statistic, would pick up
		// the noise of those per-job factors, so it takes the window's
		// median speed, as units_per_s does.
		set("setup_s", median(setupS))
		set("units_per_s", rawUnitsPerS/m.speed.scale())
		set("job_p50_ms", median(latRef))
		set("job_tail_ms", rawTail*m.speed.scale())
		set("rss_peak_mb", m.rssMB)
		return res, info
	}

	layer := m.layers(e, jobs, spans, d, units)
	layer["trace.overhead_job_p50"] = ratio(median(tracedEval), median(untracedEval)) - 1
	layer["trace.overhead_units_per_s"] = 1 - ratio(ratio(float64(tracedUnits), tracedWall), ratio(float64(untracedUnits), untracedWall))
	layer["loadgen.late_ms"] = mean(late)
	//hybrid:nondet-ok each metric writes its own key of the result map
	for name, unit := range perLayerUnits {
		res.Metrics[name] = metric{Value: layer[name], Unit: unit}
	}
	return res, info
}

func maxOf(xs []float64) float64 {
	v := 0.0
	for _, x := range xs {
		v = math.Max(v, x)
	}
	return v
}

// delta is after − before for every counter.
func delta(b, a counters) counters {
	var d counters
	d.golden.Hits = a.golden.Hits - b.golden.Hits
	d.golden.Misses = a.golden.Misses - b.golden.Misses
	d.golden.DiskHits = a.golden.DiskHits - b.golden.DiskHits
	d.golden.Evictions = a.golden.Evictions - b.golden.Evictions
	d.params.Hits = a.params.Hits - b.params.Hits
	d.params.Misses = a.params.Misses - b.params.Misses
	d.solver = subSolver(a.solver, b.solver)
	d.symbolic.Hits = a.symbolic.Hits - b.symbolic.Hits
	d.symbolic.Misses = a.symbolic.Misses - b.symbolic.Misses
	d.store.Writes = a.store.Writes - b.store.Writes
	d.storeBytes = a.storeBytes - b.storeBytes
	d.mem.PauseTotalNs = a.mem.PauseTotalNs - b.mem.PauseTotalNs
	d.mem.TotalAlloc = a.mem.TotalAlloc - b.mem.TotalAlloc
	return d
}

func subSolver(a, b spice.SolverStats) spice.SolverStats {
	return spice.SolverStats{
		Steps: a.Steps - b.Steps, Rejected: a.Rejected - b.Rejected,
		Iterations: a.Iterations - b.Iterations, Factorizations: a.Factorizations - b.Factorizations,
		Reused: a.Reused - b.Reused, LinearReuses: a.LinearReuses - b.LinearReuses,
		SparseFactorizations: a.SparseFactorizations - b.SparseFactorizations,
		SparseFallbacks:      a.SparseFallbacks - b.SparseFallbacks,
		SymbolicHits:         a.SymbolicHits - b.SymbolicHits, SymbolicMisses: a.SymbolicMisses - b.SymbolicMisses,
		Supernodes: a.Supernodes - b.Supernodes,
	}
}

// layerTotals accumulates the traced jobs' spans per layer.
type layerTotals struct {
	self      map[string]int64 // self time per span name
	dur       map[string]int64 // duration per span name
	gateUnits int
	circUnits int
	unitDur   int64
	goldenDur int64 // golden spans under units, children included
	circModel int64 // circuit unit time minus its golden time
	modelSide int64 // gate units' stimulus, model, channel and score time, plus circModel
	roots     map[session.Kind][]float64
	rootDur   int64 // gate and circuit job roots
	// unattributed is the self time of the gate and circuit job roots
	// and of their units: time inside a job that no layer span covers.
	unattributed int64
}

// rootNames are the traced job roots, by kind.
var rootNames = map[string]session.Kind{
	spanJobGate: session.KindGate, spanJobCircuit: session.KindCircuit, spanJobSweep: session.KindSweep,
}

func sumLayers(spans []Span) layerTotals {
	t := layerTotals{self: map[string]int64{}, dur: map[string]int64{},
		roots: map[session.Kind][]float64{}}
	self := SelfTimes(spans)
	byID := make(map[int]Span, len(spans))
	goldenIn := map[int]int64{} // golden time per unit span
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == spanGolden {
			goldenIn[s.Parent] += s.Dur()
		}
	}
	for _, s := range spans {
		root := tracedRoot(byID, s)
		if root == 0 {
			continue // untraced HTTP jobs and spans outside any job
		}
		rootName := byID[root].Name
		t.self[s.Name] += self[s.ID]
		t.dur[s.Name] += s.Dur()
		switch s.Name {
		case spanJobGate, spanJobCircuit, spanJobSweep:
			t.roots[rootNames[s.Name]] = append(t.roots[rootNames[s.Name]], float64(s.Dur())/1e6)
			if s.Name != spanJobSweep { // sweeps are traced whole
				t.rootDur += s.Dur()
				t.unattributed += self[s.ID]
			}
		case spanUnit:
			t.unitDur += s.Dur()
			t.unattributed += self[s.ID]
			t.goldenDur += goldenIn[s.ID]
			if rootName == spanJobCircuit {
				t.circUnits++
				t.modelSide += s.Dur() - goldenIn[s.ID]
				t.circModel += s.Dur() - goldenIn[s.ID]
			} else {
				t.gateUnits++
			}
		case spanStimulus, spanModels, spanApply, spanScore:
			if rootName == spanJobGate {
				t.modelSide += self[s.ID]
			}
		}
	}
	return t
}

// tracedRoot walks up to the span's job root and returns its ID when
// that root is a traced evaluation (not an HTTP job), else 0.
func tracedRoot(byID map[int]Span, s Span) int {
	for s.Parent != 0 {
		p, ok := byID[s.Parent]
		if !ok {
			return 0
		}
		s = p
	}
	if _, ok := rootNames[s.Name]; ok {
		return s.ID
	}
	return 0
}

// layers computes the per-layer metrics of a traced run.
func (m *meter) layers(e *env, jobs []*job, spans []Span, d counters, units int) map[string]float64 {
	out := map[string]float64{}
	t := sumLayers(spans)
	perUnit := func(name string, n int) float64 { return ratio(float64(t.self[name])/1e6, float64(n)) }
	allUnits := t.gateUnits + t.circUnits
	tracedJobs := 0
	for _, j := range jobs {
		if j.traced && j.err == nil {
			tracedJobs++
		}
	}

	var submit, queue, overhead []float64
	retries := 0
	for _, j := range jobs {
		if j.spec != nil && !j.traced && j.err == nil {
			submit = append(submit, j.submitMs)
			queue = append(queue, j.queueMs)
			overhead = append(overhead, j.overheadMs)
			retries += j.retries
		}
		if j.err == nil && j.res != nil && j.res.Circuit != nil {
			d.solver.Add(j.res.Circuit.Solver) // job-private composed-bench pools
		}
	}
	out["serve.submit_ms"] = mean(submit)
	out["serve.queue_ms"] = mean(queue)
	out["serve.overhead_ms"] = mean(overhead)
	out["serve.retries_429"] = float64(retries)
	for _, k := range []session.Kind{session.KindGate, session.KindCircuit, session.KindSweep} {
		out["session.evaluate_ms."+string(k)] = mean(t.roots[k])
	}
	out["pool.busy_ratio"] = ratio(float64(t.unitDur), float64(e.workers)*float64(t.rootDur))
	out["eval.prepare_ms"] = ratio(float64(t.self[spanPrepare])/1e6, float64(tracedJobs))
	out["eval.param_hits"] = float64(d.params.Hits)
	out["eval.param_misses"] = float64(d.params.Misses)
	out["eval.golden_ms"] = perUnit(spanGolden, allUnits)
	out["eval.golden_hit_ratio"] = ratio(float64(d.golden.Hits), float64(d.golden.Hits+d.golden.Misses))
	out["eval.golden_disk_hits"] = float64(d.golden.DiskHits)
	out["eval.golden_evictions"] = float64(d.golden.Evictions)
	out["eval.models_ms"] = perUnit(spanModels, t.gateUnits)
	out["eval.score_ms"] = perUnit(spanScore, t.gateUnits)
	out["gen.stimulus_ms"] = perUnit(spanStimulus, t.gateUnits)
	out["hybrid.apply_ms"] = perUnit(spanApply, allUnits)
	out["store.load_ms"] = ratio(float64(t.dur[spanLoad])/1e6, float64(allUnits))
	out["store.save_ms"] = ratio(float64(t.dur[spanSave])/1e6, float64(allUnits))
	out["store.writes"] = float64(d.store.Writes)
	out["store.write_bytes"] = float64(d.storeBytes)

	computed := float64(d.golden.Misses - d.golden.DiskHits)
	s := d.solver
	out["spice.steps_per_unit"] = ratio(float64(s.Steps), computed)
	out["spice.reject_ratio"] = ratio(float64(s.Rejected), float64(s.Steps+s.Rejected))
	out["spice.newton_per_step"] = ratio(float64(s.Iterations), float64(s.Steps))
	// Golden self time of the traced units over the Newton iterations
	// attributable to them (the window's iterations scaled by the
	// traced share of units).
	tracedShare := ratio(float64(allUnits), float64(units))
	out["spice.ns_per_newton"] = ratio(float64(t.self[spanGolden]), float64(s.Iterations)*tracedShare)
	out["la.factorizations_per_unit"] = ratio(float64(s.Factorizations), computed)
	out["la.sparse.factorizations_per_unit"] = ratio(float64(s.SparseFactorizations), computed)
	out["la.sparse.fallbacks"] = float64(s.SparseFallbacks)
	out["la.sparse.linear_reuse_ratio"] = ratio(float64(s.LinearReuses), float64(s.Iterations))
	out["la.sparse.symbolic_hits"] = float64(d.symbolic.Hits)
	out["la.sparse.symbolic_misses"] = float64(d.symbolic.Misses)
	out["la.sparse.supernodes"] = ratio(float64(s.Supernodes), float64(s.SymbolicHits+s.SymbolicMisses))
	out["netlist.models_ms"] = ratio(float64(t.circModel)/1e6, float64(t.circUnits))
	out["runtime.gc_pause_ms"] = float64(d.mem.PauseTotalNs) / 1e6
	out["runtime.alloc_mb_per_unit"] = ratio(float64(d.mem.TotalAlloc)/1e6, float64(units))

	out["trace.golden_share"] = ratio(float64(t.goldenDur), float64(t.unitDur))
	out["trace.model_share"] = ratio(float64(t.modelSide), float64(t.unitDur))
	out["trace.unattributed_share"] = ratio(float64(t.unattributed), float64(t.rootDur+t.unitDur))

	//hybrid:nondet-ok each share writes its own key
	for k, v := range cpuShares(m.cpu) {
		out[k] = v
	}
	return out
}
