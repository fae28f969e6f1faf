package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/la/sparse"
	"hybriddelay/internal/serve"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/store"
)

// closedLoop submits the workload's jobs back to back from one caller
// until the deadline, sampling the host's speed between them. In a
// traced run every second job goes through the tracer, so traced and
// untraced jobs interleave over the window; a traced run has at least
// one of each.
func closedLoop(ctx context.Context, wl workload, e *env, tr *tracer, probe *speedProbe, deadline time.Time, traced bool) []*job {
	var jobs []*job
	for i := 0; time.Now().Before(deadline) || (traced && i < 2); i++ {
		probe.sample()
		j := wl.next(i)
		j.traced = traced && i%2 == 1
		j.sched = time.Now()
		j.sent = j.sched
		if j.traced {
			j.res, j.err = tr.evaluate(ctx, j.sjob, j.idx+1)
		} else {
			j.res, j.err = e.sess.Evaluate(ctx, j.sjob)
		}
		j.end = time.Now()
		j.evalMs = float64(j.end.Sub(j.sent)) / 1e6
		jobs = append(jobs, j)
	}
	return jobs
}

// openLoop sends the workload's jobs on a schedule, one per interval,
// over at most e.workers connections. Completion is the SSE end
// event; the host's speed is sampled when a job completes and no other
// is in flight. In a traced run every second cycle of the job mix is
// evaluated in process through the tracer instead of over HTTP, so
// traced and untraced jobs see the same mix of kinds.
func openLoop(ctx context.Context, wl workload, e *env, tr *tracer, probe *speedProbe, window, interval time.Duration, traced bool) []*job {
	jobs := make([]*job, max(1, int(window/interval)))
	for k := range jobs {
		jobs[k] = wl.next(k)
	}
	start := time.Now()
	for k, j := range jobs {
		j.sched = start.Add(time.Duration(k) * interval)
	}
	var next, inflight atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) {
					return
				}
				j := jobs[k]
				time.Sleep(time.Until(j.sched))
				if !traced || (k/len(mixPattern))%2 == 0 {
					inflight.Add(1)
					e.srv.run(ctx, j, tr.rec)
					if inflight.Add(-1) == 0 {
						probe.sample()
					}
					continue
				}
				j.traced = true
				j.sent = time.Now()
				sj, err := j.spec.Job()
				if err == nil {
					j.res, err = tr.evaluate(ctx, sj, j.idx+1)
				}
				j.end = time.Now()
				j.err = err
				j.evalMs = float64(j.end.Sub(j.sent)) / 1e6
			}
		}()
	}
	wg.Wait()
	return jobs
}

// verify replays every successful job on a fresh reference session at
// the set-up's operating point and compares canonical results byte for
// byte; a mismatch fails the job. Jobs with equal specs share one
// replay.
func verify(ctx context.Context, e *env, jobs []*job) (int, error) {
	ref := session.New(session.Options{Workers: e.workers, Solver: e.params.Solver})
	defer ref.Close()
	want := map[string][]byte{}
	mismatches := 0
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		sj, key := j.sjob, ""
		if j.spec != nil {
			b, err := json.Marshal(j.spec)
			if err != nil {
				return 0, err
			}
			key = string(b)
			if sj, err = j.spec.Job(); err != nil {
				return 0, err
			}
		}
		w, ok := want[key]
		if !ok || key == "" {
			res, err := ref.Evaluate(ctx, sj)
			if err != nil {
				return 0, fmt.Errorf("reference replay of job %d: %w", j.idx, err)
			}
			if w, err = canonical(res); err != nil {
				return 0, err
			}
			if key != "" {
				want[key] = w
			}
		}
		got, err := canonical(j.res)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, w) {
			j.err = fmt.Errorf("job %d: result differs from the reference replay", j.idx)
			mismatches++
		}
	}
	return mismatches, nil
}

// canonical is serve.CanonicalResultJSON of a copy of res in which
// every undefined normalized ratio (NaN, when a model's inertial
// baseline area is zero; see eval.RunResult) reads -1, a value a ratio
// of areas never takes. The JSON encoding cannot carry NaN; closed-loop
// jobs never cross the wire, so their results are still compared byte
// for byte this way.
func canonical(res *session.Result) ([]byte, error) {
	c := *res
	if c.Gate != nil {
		c.Gate = append([]eval.RunResult(nil), c.Gate...)
		for i := range c.Gate {
			c.Gate[i].Normalized = definedRatios(c.Gate[i].Normalized)
		}
	}
	if c.Circuit != nil {
		cr := *c.Circuit
		cr.Normalized = make(map[string]map[string]float64, len(cr.Normalized))
		//hybrid:nondet-ok copies each net into its own key
		for net, ratios := range c.Circuit.Normalized {
			cr.Normalized[net] = definedRatios(ratios)
		}
		cr.TotalNormalized = definedRatios(cr.TotalNormalized)
		c.Circuit = &cr
	}
	return serve.CanonicalResultJSON(&c)
}

func definedRatios(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	//hybrid:nondet-ok copies each model into its own key
	for k, v := range m {
		if math.IsNaN(v) {
			v = -1
		}
		out[k] = v
	}
	return out
}

// counters is a snapshot of every program counter the benchmark reads.
type counters struct {
	golden     eval.CacheStats
	params     eval.ParamStats
	solver     spice.SolverStats
	symbolic   sparse.CacheStats
	store      store.Stats
	storeBytes int64
	mem        runtime.MemStats
}

func snapshot(e *env) counters {
	var c counters
	c.golden = e.sess.GoldenCache().Stats()
	c.params = e.sess.ParamCache().Stats()
	c.solver = e.sess.ParamCache().SolverStats()
	c.symbolic = spice.SharedSymbolicCache().Stats()
	if e.st != nil {
		c.store = e.st.Stats()
		filepath.WalkDir(e.st.Dir(), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if info, err := d.Info(); err == nil {
					c.storeBytes += info.Size()
				}
			}
			return nil
		})
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// meter brackets the measured window: counters before and after, the
// peak resident memory, in a metric run the host's speed and in a
// traced run the CPU profile.
type meter struct {
	traced        bool
	probe         *speedProbe // nil in a traced run
	speed         speed
	before, after counters
	prof          bytes.Buffer
	profErr       error
	rssMB         float64
	cpu           map[string]int64 // self CPU ns per package, traced runs
	ticks, steal  [2]int64         // machine CPU ticks and stolen ticks, before and after
}

// stealShare is the share of the machine's CPU time stolen by the
// hypervisor during the window.
func (m *meter) stealShare() float64 {
	return ratio(float64(m.steal[1]-m.steal[0]), float64(m.ticks[1]-m.ticks[0]))
}

func newMeter(e *env, traced bool) *meter {
	m := &meter{traced: traced}
	runtime.GC()
	m.before = snapshot(e)
	m.ticks[0], m.steal[0] = cpuTicks()
	if traced {
		m.profErr = pprof.StartCPUProfile(&m.prof)
	} else {
		m.probe = &speedProbe{}
	}
	return m
}

// stop ends the window. The store's write-behind queue is drained
// first so its counters are complete; that drain is outside the
// timed jobs. In a traced run the CPU profile is written to
// profPath and split by package.
func (m *meter) stop(ctx context.Context, e *env, profPath string) error {
	if m.probe != nil {
		m.speed = newSpeed(m.probe.samples)
	}
	if m.traced {
		if m.profErr != nil {
			return fmt.Errorf("CPU profile: %w", m.profErr)
		}
		pprof.StopCPUProfile()
	}
	m.ticks[1], m.steal[1] = cpuTicks()
	m.rssMB = peakRSSMB()
	if err := e.sess.Close(); err != nil {
		return fmt.Errorf("draining the golden store: %w", err)
	}
	m.after = snapshot(e)
	if !m.traced {
		return nil
	}
	if err := os.WriteFile(profPath, m.prof.Bytes(), 0o644); err != nil {
		return err
	}
	var err error
	m.cpu, err = cpuByPackage(ctx, profPath)
	return err
}
