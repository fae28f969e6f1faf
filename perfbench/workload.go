package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/serve"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/store"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlFig7    = "fig7-cold"
	wlCircuit = "circuit-sparse"
	wlServe   = "serve-warm"
)

var workloadNames = []string{wlFig7, wlCircuit, wlServe}

// sizes holds every size knob of the workloads. The benchmark runs
// defaultSizes; the tests shrink them.
type sizes struct {
	Setups      int // set-ups per metric run; setup_s is their median
	Fig7Warmup  int // untimed fig7-cold jobs per set-up
	Fig7Seeds   int // seeds per fig7-cold job (units per configuration)
	Fig7Scale   int // divisor of the paper's per-config transition counts
	CircWarmup  int // untimed circuit-sparse jobs per set-up
	CircTrans   int // transitions per rca4 unit
	CircSeeds   int // seeds (units) per circuit job
	ServePool   int // warm seeds per serve-warm stimulus
	ServeWarmup int // untimed serve-warm jobs per set-up
	// ServeInterval is the open loop's send interval.
	ServeInterval time.Duration
	// ServeBudget is SessionOptions.GoldenBudget for serve-warm: below
	// the mix's working set, so part of the hits come from the store.
	ServeBudget int64
}

var defaultSizes = sizes{
	Setups:        5,
	Fig7Warmup:    6,
	Fig7Seeds:     2,
	Fig7Scale:     16,
	CircWarmup:    3,
	CircTrans:     12,
	CircSeeds:     2,
	ServePool:     12,
	ServeWarmup:   8,
	ServeInterval: 50 * time.Millisecond,
	ServeBudget:   400,
}

// job is one submitted job and its outcome.
type job struct {
	idx   int
	kind  session.Kind
	units int
	fresh int // units no earlier job of the run evaluated
	sjob  session.Job
	spec  *serve.JobSpec // serve-warm only

	traced bool
	sched  time.Time // open loop: scheduled send; closed loop: call start
	sent   time.Time
	end    time.Time
	res    *session.Result
	err    error

	submitMs, queueMs, overheadMs float64 // serve-warm HTTP jobs
	evalMs                        float64 // evaluation time (server side, or the traced root)
	retries                       int
}

func (j *job) latencyMs() float64 { return float64(j.end.Sub(j.sched)) / 1e6 }

// env is one set-up: a fresh store directory, a session over it and,
// for serve-warm, the in-process server and its loopback client.
type env struct {
	dir     string
	st      *store.Store
	sess    *session.Session
	params  nor.Params
	workers int
	srv     *httpServer
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.close()
	}
	if e.sess != nil {
		e.sess.Close()
	}
	if e.st != nil {
		e.st.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// newEnv opens a fresh session; withStore mounts a store in a new
// directory under scratch.
func newEnv(scratch string, mode spice.SolverMode, withStore bool, budget int64, rec *Recorder) (*env, error) {
	e := &env{workers: min(2, runtime.NumCPU()), params: nor.DefaultParams()}
	e.params.Solver = mode
	opt := session.Options{Workers: e.workers, Solver: mode, GoldenBudget: budget}
	if withStore {
		dir, err := os.MkdirTemp(scratch, "store-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.st, err = store.Open(filepath.Join(dir, "golden")); err != nil {
			e.close()
			return nil, err
		}
		opt.Store = &storeProbe{st: e.st, rec: rec}
	}
	e.sess = session.New(opt)
	return e, nil
}

// workload generates a run's jobs from its seed and builds set-ups.
type workload interface {
	// setup builds set-up number k (0 ≤ k < sizes.Setups) and runs
	// its untimed warm-up. Each set-up warms up on its own seeds.
	setup(ctx context.Context, scratch string, rec *Recorder, k int) (*env, error)
	// closed reports whether the workload is a closed loop.
	closed() bool
	// next returns the measured stream's i-th job; calls go in order
	// of i from 0.
	next(i int) *job
}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case wlFig7:
		return newFig7(seed, sz), nil
	case wlCircuit:
		return newCircuit(seed, sz)
	case wlServe:
		return newServeWarm(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// seedBase derives a run's first unit seed from the benchmark seed.
func seedBase(seed int64) int64 {
	return 1 + rand.New(rand.NewSource(seed)).Int63n(1<<40)
}

// fig7Configs are the paper's four Fig. 7 configurations with their
// transition counts divided by scale.
func fig7Configs(scale int) []gen.Config {
	cfgs := gen.PaperConfigs()
	for i := range cfgs {
		cfgs[i].Transitions = max(2, cfgs[i].Transitions/scale)
	}
	return cfgs
}

// fig7 is the fig7-cold workload: nor2 Fig. 7 jobs under dense-exact,
// seeds no other job of the run uses, on a freshly opened store.
type fig7 struct {
	sz      sizes
	base    int64
	cfgs    []gen.Config
	measure int64
}

func newFig7(seed int64, sz sizes) *fig7 {
	f := &fig7{sz: sz, base: seedBase(seed), cfgs: fig7Configs(sz.Fig7Scale)}
	// Warm-up seeds come first, then the measured stream's.
	f.measure = f.base + int64(sz.Setups*sz.Fig7Warmup*sz.Fig7Seeds) + 1
	return f
}

func (f *fig7) closed() bool { return true }

// gateJob is job i over the seeds from first on.
func (f *fig7) gateJob(i int, first int64) *job {
	seeds := make([]int64, f.sz.Fig7Seeds)
	for k := range seeds {
		seeds[k] = first + int64(k)
	}
	n := len(f.cfgs) * len(seeds)
	return &job{idx: i, kind: session.KindGate, units: n, fresh: n,
		sjob: session.GateJob{Gate: "nor2", Configs: f.cfgs, Seeds: seeds}}
}

func (f *fig7) setup(ctx context.Context, scratch string, rec *Recorder, k int) (*env, error) {
	e, err := newEnv(scratch, spice.DenseExact, true, 0, rec)
	if err != nil {
		return nil, err
	}
	first := f.base + int64(k*f.sz.Fig7Warmup*f.sz.Fig7Seeds)
	for i := 0; i < f.sz.Fig7Warmup; i++ {
		if _, err := e.sess.Evaluate(ctx, f.gateJob(i, first+int64(i*f.sz.Fig7Seeds)).sjob); err != nil {
			e.close()
			return nil, fmt.Errorf("fig7-cold warm-up: %w", err)
		}
	}
	return e, nil
}

func (f *fig7) next(i int) *job { return f.gateJob(i, f.measure+int64(i*f.sz.Fig7Seeds)) }

// circuit is the circuit-sparse workload: rca4 circuit jobs under
// sparse-fast with unique seeds.
type circuit struct {
	sz      sizes
	base    int64
	nl      *netlist.Netlist
	cfg     gen.Config
	measure int64
}

func newCircuit(seed int64, sz sizes) (*circuit, error) {
	nl, err := netlist.Builtin("rca4")
	if err != nil {
		return nil, err
	}
	c := &circuit{sz: sz, base: seedBase(seed), nl: nl}
	c.cfg = gen.Config{Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Mode: gen.Local,
		Inputs: len(nl.Inputs), Transitions: sz.CircTrans, Start: 200 * waveform.Pico}
	c.measure = c.base + int64(sz.Setups*sz.CircWarmup*sz.CircSeeds) + 1
	return c, nil
}

func (c *circuit) closed() bool { return true }

func (c *circuit) circuitJob(i int, first int64) *job {
	seeds := make([]int64, c.sz.CircSeeds)
	for k := range seeds {
		seeds[k] = first + int64(k)
	}
	return &job{idx: i, kind: session.KindCircuit, units: len(seeds), fresh: len(seeds),
		sjob: session.CircuitJob{Netlist: c.nl, Config: c.cfg, Seeds: seeds}}
}

func (c *circuit) setup(ctx context.Context, scratch string, rec *Recorder, k int) (*env, error) {
	e, err := newEnv(scratch, spice.SparseFast, false, 0, rec)
	if err != nil {
		return nil, err
	}
	first := c.base + int64(k*c.sz.CircWarmup*c.sz.CircSeeds)
	for i := 0; i < c.sz.CircWarmup; i++ {
		if _, err := e.sess.Evaluate(ctx, c.circuitJob(i, first+int64(i*c.sz.CircSeeds)).sjob); err != nil {
			e.close()
			return nil, fmt.Errorf("circuit-sparse warm-up: %w", err)
		}
	}
	return e, nil
}

func (c *circuit) next(i int) *job { return c.circuitJob(i, c.measure+int64(i*c.sz.CircSeeds)) }

// serveWarm is the serve-warm workload: an open-loop mix of gate,
// circuit and sweep JobSpecs against an in-process serve.Server whose
// caches and store set-up filled.
type serveWarm struct {
	sz       sizes
	seed     int64
	pool     []int64    // warm seeds: set-up evaluates every unit over them
	fresh    int64      // next fresh seed
	rng      *rand.Rand // draws the measured stream's seeds
	stimuli  []sweep.Stimulus
	circStim sweep.Stimulus
}

func newServeWarm(seed int64, sz sizes) *serveWarm {
	base := seedBase(seed)
	s := &serveWarm{sz: sz, seed: seed, fresh: base + 1<<20, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < sz.ServePool; i++ {
		s.pool = append(s.pool, base+int64(i))
	}
	for _, c := range fig7Configs(serveScale) {
		s.stimuli = append(s.stimuli, sweep.Stimulus{Mode: c.Mode, Mu: c.Mu, Sigma: c.Sigma, Transitions: c.Transitions, Start: c.Start})
	}
	s.circStim = sweep.Stimulus{Mode: gen.Local, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: 12}
	return s
}

func (s *serveWarm) closed() bool { return false }

// fillSpecs cover every warm unit of the mix.
func (s *serveWarm) fillSpecs() []serve.JobSpec {
	return []serve.JobSpec{
		{Kind: session.KindGate, Gate: "nor2", Stimuli: s.stimuli, Seeds: s.pool},
		{Kind: session.KindCircuit, Circuit: "c17", Stimuli: []sweep.Stimulus{s.circStim}, Seeds: s.pool},
		{Kind: session.KindSweep, Sweep: s.sweepSpec(s.pool)},
	}
}

func (s *serveWarm) sweepSpec(seeds []int64) *sweep.Spec {
	return &sweep.Spec{Gates: []string{"nor2"}, VDDScale: []float64{1, 0.9},
		Stimuli: s.stimuli[:2], Seeds: seeds}
}

// pick draws n distinct warm seeds.
func (s *serveWarm) pick(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i, k := range rng.Perm(len(s.pool))[:n] {
		out[i] = s.pool[k]
	}
	return out
}

// serveScale divides the paper's transition counts for the serve-warm
// stimuli.
const serveScale = 20

// mixPattern is the serve-warm job cycle: g a warm gate job, f a gate
// job with one fresh unit, c a circuit job, s a sweep job. The fresh
// tenth are the slowest, so the tail percentile lands among them.
// Circuit and sweep jobs are sized to take about as long as a warm
// gate job, so the median does not sit on a boundary between kinds.
const mixPattern = "gsgcgsgcgf"

// mixJob draws job i of a stream following mixPattern, with seeds
// from the warm pool. fresh=false keeps the fresh slot's unit warm too.
func (s *serveWarm) mixJob(rng *rand.Rand, i int, fresh bool) *job {
	var spec serve.JobSpec
	j := &job{idx: i}
	switch slot := mixPattern[i%len(mixPattern)]; slot {
	case 'g':
		seeds := s.pick(rng, min(4, len(s.pool)))
		spec = serve.JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: s.stimuli, Seeds: seeds}
		j.units = len(s.stimuli) * len(seeds)
	case 'f':
		// One stimulus over four seeds, the first of them fresh: one
		// unit computes its transient and spills it to the store.
		seeds := s.pick(rng, min(4, len(s.pool)))
		if fresh {
			seeds[0] = s.fresh
			s.fresh++
			j.fresh = 1
		}
		spec = serve.JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: s.stimuli[:1], Seeds: seeds}
		j.units = len(seeds)
	case 'c':
		seeds := s.pick(rng, min(10, len(s.pool)))
		spec = serve.JobSpec{Kind: session.KindCircuit, Circuit: "c17", Stimuli: []sweep.Stimulus{s.circStim}, Seeds: seeds}
		j.units = len(seeds)
	case 's':
		seeds := s.pick(rng, min(3, len(s.pool)))
		spec = serve.JobSpec{Kind: session.KindSweep, Sweep: s.sweepSpec(seeds)}
		j.units = 2 * 2 * len(seeds)
	}
	j.kind = spec.Kind
	j.spec = &spec
	return j
}

func (s *serveWarm) setup(ctx context.Context, scratch string, rec *Recorder, k int) (*env, error) {
	e, err := newEnv(scratch, spice.DenseExact, true, s.sz.ServeBudget, rec)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, fmt.Errorf("serve-warm set-up: %w", err)
	}
	for _, spec := range s.fillSpecs() {
		sj, err := spec.Job()
		if err != nil {
			return fail(err)
		}
		if _, err := e.sess.Evaluate(ctx, sj); err != nil {
			return fail(err)
		}
	}
	if e.srv, err = startServer(e); err != nil {
		return fail(err)
	}
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(k) + 1))
	for i := 0; i < s.sz.ServeWarmup; i++ {
		j := s.mixJob(rng, i, false)
		e.srv.run(ctx, j, nil)
		if j.err != nil {
			return fail(j.err)
		}
	}
	return e, nil
}

func (s *serveWarm) next(i int) *job { return s.mixJob(s.rng, i, true) }
