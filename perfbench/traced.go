package main

import (
	"context"
	"fmt"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/pool"
	"hybriddelay/internal/session"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// Layer span names. The traced run reports self time per name.
const (
	spanJobGate    = "session.evaluate.gate"
	spanJobCircuit = "session.evaluate.circuit"
	spanJobSweep   = "session.evaluate.sweep"
	spanPrepare    = "eval.prepare"
	spanUnit       = "eval.unit"
	spanStimulus   = "gen.stimulus"
	spanGolden     = "eval.golden"
	spanModels     = "eval.models"
	spanScore      = "eval.score"
	spanApply      = "hybrid.apply"
	spanBench      = "netlist.bench"
	spanNetlist    = "netlist.models"
	spanLoad       = "store.load"
	spanSave       = "store.save"
	spanHTTPSubmit = "http.submit"
	spanHTTPEvents = "http.events"
	spanQueue      = "serve.queue"
	spanJobHTTP    = "serve.job"
)

// tracer evaluates session jobs with spans around every layer it can
// reach from outside the program. Gate and circuit jobs are composed
// from the same public pieces Session.Evaluate composes — the session's
// own parametrization and golden caches, eval.CachedSource /
// CachedCircuitSource over the operating point's bench pool, the
// runner's batched leasing — with the golden sources and the hybrid
// channels wrapped. The unit body of a gate job repeats
// eval.EvaluateSeedContext call for call, because the runner gives no
// hook between its stages. Sweep jobs go through Session.Evaluate
// whole. The verification step proves the composition faithful: a
// traced job's canonical result must equal the reference replay byte
// for byte.
type tracer struct {
	rec     *Recorder
	sess    *session.Session
	params  nor.Params // the session's base operating point
	workers int
}

// evaluate runs one job under a root span owned by job.
func (t *tracer) evaluate(ctx context.Context, job session.Job, jobID int) (*session.Result, error) {
	switch j := job.(type) {
	case session.GateJob:
		root := t.rec.Begin(spanJobGate, jobID, -1)
		defer t.rec.End(root)
		return t.gate(ctx, j, root)
	case session.CircuitJob:
		root := t.rec.Begin(spanJobCircuit, jobID, -1)
		defer t.rec.End(root)
		return t.circuit(ctx, j, root)
	case session.SweepJob:
		root := t.rec.Begin(spanJobSweep, jobID, -1)
		defer t.rec.End(root)
		return t.sess.Evaluate(ctx, j)
	}
	return nil, fmt.Errorf("perfbench: cannot trace job %T", job)
}

func expDMinOr(v float64) float64 {
	if v > 0 {
		return v
	}
	return session.DefaultExpDMin
}

// prepare resolves an operating point through the session's
// parametrization cache and wraps its hybrid channels.
func (t *tracer) prepare(ctx context.Context, g gate.Gate, p nor.Params, expDMin float64) (*eval.OperatingPoint, gate.Models, error) {
	sp := t.rec.Begin(spanPrepare, 0, -1)
	op, err := t.sess.ParamCache().OperatingPoint(ctx, g, p, expDMin)
	t.rec.End(sp)
	if err != nil {
		return nil, gate.Models{}, err
	}
	m := op.Models
	m.HM = spanModel{rec: t.rec, m: m.HM}
	m.HMNoDMin = spanModel{rec: t.rec, m: m.HMNoDMin}
	return op, m, nil
}

// batches splits total units into the runner's batch size (about two
// claims per worker) and runs fn over each batch on the worker pool.
func (t *tracer) batches(ctx context.Context, total int, fn func(lo, hi int) error) error {
	batch := max(1, (total+2*t.workers-1)/(2*t.workers))
	n := (total + batch - 1) / batch
	return pool.RunContext(ctx, n, t.workers, func(bi int) error {
		return fn(bi*batch, min(total, (bi+1)*batch))
	}, nil)
}

// gate mirrors the session's gate path for a job without preset
// models or bench.
func (t *tracer) gate(ctx context.Context, j session.GateJob, root int) (*session.Result, error) {
	if j.Models != nil || j.Bench != nil || j.Params != nil || j.NoCache || j.Cache != nil {
		return nil, fmt.Errorf("perfbench: traced gate jobs take only Gate, Configs, Seeds and ExpDMin")
	}
	if len(j.Seeds) == 0 || len(j.Configs) == 0 {
		return nil, fmt.Errorf("perfbench: gate job needs configurations and seeds")
	}
	g, err := gate.Find(j.Gate)
	if err != nil {
		return nil, err
	}
	op, models, err := t.prepare(ctx, g, t.params, expDMinOr(j.ExpDMin))
	if err != nil {
		return nil, err
	}
	src := eval.CachedSource{Gate: g.Name(), Bench: t.params, Cache: t.sess.GoldenCache(), Src: op.Golden}
	total := len(j.Configs) * len(j.Seeds)
	parts := make([]eval.SeedResult, total)
	err = t.batches(ctx, total, func(lo, hi int) error {
		leased, release, err := src.Lease()
		if err != nil {
			return err
		}
		defer release()
		gid := goid()
		for i := lo; i < hi; i++ {
			u := t.rec.BeginOn(gid, spanUnit, 0, root)
			parts[i], err = t.gateUnit(ctx, gid, leased, models, j.Configs[i/len(j.Seeds)], j.Seeds[i%len(j.Seeds)])
			t.rec.End(u)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]eval.RunResult, len(j.Configs))
	for ci, cfg := range j.Configs {
		rows[ci] = eval.MergeSeedResults(cfg, parts[ci*len(j.Seeds):(ci+1)*len(j.Seeds)])
	}
	return &session.Result{Kind: session.KindGate, Gate: rows, Models: &op.Models}, nil
}

// gateUnit is eval.EvaluateSeedContext with a span around each stage,
// run on goroutine gid.
func (t *tracer) gateUnit(ctx context.Context, gid uint64, golden eval.GoldenSource, m gate.Models, cfg gen.Config, seed int64) (eval.SeedResult, error) {
	res := eval.SeedResult{Config: cfg, Seed: seed, Area: map[string]float64{}}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	sp := t.rec.BeginOn(gid, spanStimulus, 0, -1)
	inputs, err := gen.Traces(cfg, seed)
	t.rec.End(sp)
	if err != nil {
		return res, err
	}
	if len(inputs) != m.Gate.Arity() {
		return res, fmt.Errorf("perfbench: gate %s needs %d inputs, config has %d", m.Gate.Name(), m.Gate.Arity(), len(inputs))
	}
	until := gen.Horizon(inputs, 600*waveform.Pico)
	sp = t.rec.BeginOn(gid, spanGolden, 0, -1)
	g, err := golden.Golden(eval.GoldenRequest{Config: cfg, Seed: seed, Inputs: inputs, Until: until})
	t.rec.End(sp)
	if err != nil {
		return res, err
	}
	res.GoldenEv = g.NumEvents()
	sp = t.rec.BeginOn(gid, spanModels, 0, -1)
	outs, err := eval.RunModels(m, inputs, until)
	t.rec.End(sp)
	if err != nil {
		return res, err
	}
	sp = t.rec.BeginOn(gid, spanScore, 0, -1)
	//hybrid:nondet-ok each model writes its own Area[name]; distinct keys, so visit order cannot change the result
	for name, tr := range outs {
		res.Area[name] = trace.DeviationArea(g, tr, 0, until)
	}
	t.rec.End(sp)
	return res, nil
}

// circuit mirrors the session's circuit path: member-gate operating
// points from the parametrization cache, a composed bench pool under
// the session's golden cache, batched seed units.
func (t *tracer) circuit(ctx context.Context, j session.CircuitJob, root int) (*session.Result, error) {
	if j.Netlist == nil || j.Models != nil || j.Params != nil || j.NoCache || j.Cache != nil {
		return nil, fmt.Errorf("perfbench: traced circuit jobs take only Netlist, Config, Seeds and ExpDMin")
	}
	nl := j.Netlist
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	ms := netlist.ModelSet{}
	for _, inst := range nl.Instances {
		g, err := gate.Find(inst.Gate)
		if err != nil {
			return nil, err
		}
		if _, ok := ms[g.Name()]; ok {
			continue
		}
		_, m, err := t.prepare(ctx, g, t.params, expDMinOr(j.ExpDMin))
		if err != nil {
			return nil, err
		}
		ms[g.Name()] = m
	}
	if len(j.Seeds) == 0 {
		return nil, fmt.Errorf("perfbench: circuit job needs seeds")
	}
	sp := t.rec.Begin(spanBench, 0, -1)
	bench, err := netlist.NewBench(nl, t.params)
	t.rec.End(sp)
	if err != nil {
		return nil, err
	}
	benches := eval.NewCircuitBenchSource(bench)
	src := eval.CachedCircuitSource{Key: nl.ContentKey(), Bench: t.params, Cache: t.sess.GoldenCache(), Src: benches}
	parts := make([]eval.CircuitSeedResult, len(j.Seeds))
	err = t.batches(ctx, len(j.Seeds), func(lo, hi int) error {
		leased, release, err := src.LeaseCircuit()
		if err != nil {
			return err
		}
		defer release()
		traced := &spanCircuitSource{rec: t.rec, src: leased, g: goid()}
		for i := lo; i < hi; i++ {
			u := t.rec.BeginOn(traced.g, spanUnit, 0, root)
			parts[i], err = eval.EvaluateCircuitSeedContext(ctx, traced, nl, ms, j.Config, j.Seeds[i])
			t.rec.End(traced.models)
			traced.models = 0
			t.rec.End(u)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := eval.MergeCircuitSeedResults(nl, j.Config, parts)
	res.Solver = benches.SolverStats()
	return &session.Result{Kind: session.KindCircuit, Circuit: &res}, nil
}

// spanModel times a hybrid channel's Apply.
type spanModel struct {
	rec *Recorder
	m   gate.Model
}

func (s spanModel) Apply(inputs []trace.Trace, until float64) (trace.Trace, error) {
	sp := s.rec.Begin(spanApply, 0, -1)
	defer s.rec.End(sp)
	return s.m.Apply(inputs, until)
}

func (s spanModel) String() string { return s.m.String() }

// spanCircuitSource times a circuit unit's composed golden lookup.
// When the lookup returns it opens the unit's netlist.models span:
// eval.EvaluateCircuitSeedContext runs the netlist's model channels
// and scores them after the golden, with no hook between the two, so
// the caller ends that span when the unit returns.
type spanCircuitSource struct {
	rec    *Recorder
	src    eval.CircuitGoldenSource
	g      uint64 // the goroutine the units run on
	models int    // open netlist.models span, 0 for none
}

func (s *spanCircuitSource) GoldenNets(req eval.GoldenRequest) (map[string]trace.Trace, error) {
	sp := s.rec.BeginOn(s.g, spanGolden, 0, -1)
	nets, err := s.src.GoldenNets(req)
	s.rec.End(sp)
	if err == nil {
		s.models = s.rec.BeginOn(s.g, spanNetlist, 0, -1)
	}
	return nets, err
}

// storeProbe wraps the persistent golden store mounted below the
// session's golden cache, timing loads and saves while a recorder is
// attached. Saves are the write-behind enqueue; the disk write itself
// runs on the store's background goroutine.
type storeProbe struct {
	st  eval.PersistentStore
	rec *Recorder
}

func (p *storeProbe) Load(key eval.GoldenKey) (trace.Trace, bool, error) {
	sp := p.rec.Begin(spanLoad, 0, -1)
	defer p.rec.End(sp)
	return p.st.Load(key)
}

func (p *storeProbe) Save(key eval.GoldenKey, tr trace.Trace) error {
	sp := p.rec.Begin(spanSave, 0, -1)
	defer p.rec.End(sp)
	return p.st.Save(key, tr)
}

func (p *storeProbe) LoadSet(key eval.GoldenKey) (map[string]trace.Trace, bool, error) {
	sp := p.rec.Begin(spanLoad, 0, -1)
	defer p.rec.End(sp)
	return p.st.LoadSet(key)
}

func (p *storeProbe) SaveSet(key eval.GoldenKey, set map[string]trace.Trace) error {
	sp := p.rec.Begin(spanSave, 0, -1)
	defer p.rec.End(sp)
	return p.st.SaveSet(key, set)
}

// Flush forwards to the store so Session.Close still drains the
// write-behind queue through the probe.
func (p *storeProbe) Flush() error {
	if f, ok := p.st.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}
