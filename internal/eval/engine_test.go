package eval

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/idm"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
)

// runGate evaluates one configuration over seeds on the unit engine.
func runGate(src GoldenSource, m Models, cfg gen.Config, seeds []int64, workers int) (RunResult, error) {
	rows, err := RunGate(context.Background(), src, m, []gen.Config{cfg}, seeds, workers, nil)
	if err != nil {
		return RunResult{}, err
	}
	return rows[0], nil
}

// cheapModels builds a model set without touching the analog bench
// (Table I parameters instead of a fitted characteristic), for engine
// tests that exercise scheduling rather than accuracy.
func cheapModels(t *testing.T) Models {
	t.Helper()
	hm := hybrid.TableI()
	hm0 := hm
	hm0.DMin = 0
	arcs, err := inertial.NORArcsFromSIS(40e-12, 38e-12, 53e-12, 56e-12)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := idm.ExpFromSIS(54.5e-12, 39e-12, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	return Models{
		Gate:     gate.NOR2,
		Inertial: arcs.Arcs(),
		Exp:      exp,
		HM:       gate.NOR2Model{P: hm},
		HMNoDMin: gate.NOR2Model{P: hm0},
		Supply:   hm.Supply,
	}
}

// countingSource is a synthetic GoldenSource recording how often it
// computes; failSeed (when non-zero) errors on that seed's first call.
type countingSource struct {
	mu       sync.Mutex
	calls    int
	failSeed int64
	failed   bool
}

func (s *countingSource) Golden(req GoldenRequest) (trace.Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if req.Seed == s.failSeed && !s.failed {
		s.failed = true
		return trace.Trace{}, fmt.Errorf("synthetic golden failure")
	}
	// A fixed plausible NOR output: starts high, one falling edge.
	return trace.New(true, []trace.Event{{Time: 1e-9, Value: false}}), nil
}

func (s *countingSource) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func testConfig(transitions int) gen.Config {
	cfg := gen.PaperConfigs()[0]
	cfg.Transitions = transitions
	return cfg
}

func TestGoldenCacheHitMiss(t *testing.T) {
	inner := &countingSource{}
	cache := NewGoldenCache()
	src := CachedSource{Gate: "nor2", Bench: nor.DefaultParams(), Cache: cache, Src: inner}
	cfg := testConfig(4)
	inputs, err := gen.Traces(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := GoldenRequest{Config: cfg, Seed: 1, Inputs: inputs, Until: 1e-9}

	if _, err := src.Golden(req); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Golden(req); err != nil {
		t.Fatal(err)
	}
	if inner.count() != 1 {
		t.Errorf("identical requests computed %d times, want 1", inner.count())
	}
	req2 := req
	req2.Seed = 2
	if _, err := src.Golden(req2); err != nil {
		t.Fatal(err)
	}
	if inner.count() != 2 {
		t.Errorf("distinct seed did not compute (calls=%d)", inner.count())
	}
	// A different bench parametrization must not alias the same seed.
	otherBench := nor.DefaultParams()
	otherBench.CO *= 2
	src2 := CachedSource{Gate: "nor2", Bench: otherBench, Cache: cache, Src: inner}
	if _, err := src2.Golden(req); err != nil {
		t.Fatal(err)
	}
	if inner.count() != 3 {
		t.Errorf("distinct bench params did not compute (calls=%d)", inner.count())
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 3 {
		t.Errorf("stats %+v, want 1 hit / 3 misses / 3 entries", st)
	}
}

func TestGoldenCacheDoesNotCacheErrors(t *testing.T) {
	inner := &countingSource{failSeed: 7}
	cache := NewGoldenCache()
	src := CachedSource{Gate: "nor2", Bench: nor.DefaultParams(), Cache: cache, Src: inner}
	req := GoldenRequest{Config: testConfig(4), Seed: 7}
	if _, err := src.Golden(req); err == nil {
		t.Fatal("first call should fail")
	}
	if _, err := src.Golden(req); err != nil {
		t.Fatalf("retry after failure should recompute and succeed: %v", err)
	}
	if inner.count() != 2 {
		t.Errorf("error was cached (calls=%d, want 2)", inner.count())
	}
}

// TestRunnerEarlyErrorAndProgress: a failing unit's error surfaces from
// the engine and through its completion callback, and the callback's
// completed count rises strictly from 1 with no unit reported twice.
func TestRunnerEarlyErrorAndProgress(t *testing.T) {
	m := cheapModels(t)
	src := &countingSource{failSeed: 3}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	var events []int
	sawErr := false
	_, err := RunGate(context.Background(), src, m, []gen.Config{testConfig(4)}, seeds, 4, func(i, completed int, err error) {
		if completed != len(events)+1 {
			t.Errorf("completed jumped %d -> %d", len(events), completed)
		}
		if i < 0 || i >= len(seeds) {
			t.Errorf("unit index %d out of range", i)
		}
		events = append(events, i)
		sawErr = sawErr || err != nil
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic golden failure") {
		t.Fatalf("engine returned %v, want the unit error", err)
	}
	if len(events) == 0 || len(events) > len(seeds) {
		t.Fatalf("%d completion events for %d units", len(events), len(seeds))
	}
	if !sawErr {
		t.Error("failing unit never reported through the completion callback")
	}
}

func TestRunnerValidation(t *testing.T) {
	m := cheapModels(t)
	if _, err := RunGate(context.Background(), &countingSource{}, m, []gen.Config{testConfig(4)}, nil, 2, nil); err == nil {
		t.Error("empty seed list accepted")
	}
	if _, err := RunGate(context.Background(), &countingSource{}, m, nil, []int64{1}, 2, nil); err == nil {
		t.Error("empty config list accepted")
	}
}

// TestRunUnitsEarliestError: when several units fail, the engine
// returns the earliest-index error for every worker count, whichever
// unit failed first in time.
func TestRunUnitsEarliestError(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		err := RunUnits(context.Background(), Units[any]{
			N: 40, Workers: workers,
			Source: func(int) any { return nil },
			Run: func(_ context.Context, _ any, i int) error {
				if i == 9 || i == 31 {
					return fmt.Errorf("unit %d failed", i)
				}
				return nil
			},
		})
		// Unit 31 sits in a later batch than unit 9 for every worker
		// count here, and a batch that fails stops only itself.
		if err == nil || err.Error() != "unit 9 failed" {
			t.Errorf("workers=%d: error %v, want unit 9's", workers, err)
		}
	}
}

// TestRunUnitsContextCollapse: a cancelled run returns its own ctx.Err()
// in place of the context errors its units reported, while in a live
// run a context-flavoured unit error is a real failure and surfaces.
func TestRunUnitsContextCollapse(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := RunUnits(ctx, Units[any]{
		N: 64, Workers: 2,
		Source: func(int) any { return nil },
		Run: func(ctx context.Context, _ any, i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("unit %d: %w", i, err)
			}
			return nil
		},
	})
	if err != context.Canceled {
		t.Errorf("cancelled run returned %v, want exactly context.Canceled", err)
	}
	if n := ran.Load(); n >= 64 {
		t.Errorf("%d units ran after cancellation, want new claims to stop", n)
	}

	err = RunUnits(context.Background(), Units[any]{
		N: 4, Workers: 1,
		Source: func(int) any { return nil },
		Run: func(_ context.Context, _ any, i int) error {
			if i == 2 {
				return fmt.Errorf("leader gave up: %w", context.DeadlineExceeded)
			}
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "leader gave up") {
		t.Errorf("live run returned %v, want the unit's context-flavoured error", err)
	}
}

// leaseCounter is a GoldenSource whose leases are counted, so tests can
// observe the engine's batching and lease hand-back.
type leaseCounter struct {
	countingSource
	leases, releases atomic.Int64
}

func (s *leaseCounter) Lease() (GoldenSource, func(), error) {
	s.leases.Add(1)
	return s, func() { s.releases.Add(1) }, nil
}

// TestRunUnitsPanicDropsLease: a panicking unit fails the run with an
// error naming the panic, and the bench its batch had leased is not
// handed back (its transient state is unknown); every other lease is.
func TestRunUnitsPanicDropsLease(t *testing.T) {
	src := &leaseCounter{}
	var done atomic.Int64
	err := RunUnits(context.Background(), Units[GoldenSource]{
		N: 8, Workers: 1,
		Source: func(int) GoldenSource { return src },
		Run: func(_ context.Context, _ GoldenSource, i int) error {
			if i == 5 {
				panic("bench exploded")
			}
			return nil
		},
		Done: func(int, int, error) { done.Add(1) },
	})
	if err == nil || !strings.Contains(err.Error(), "panicked: bench exploded") {
		t.Fatalf("engine returned %v, want the panic as the unit error", err)
	}
	// One worker, 8 units: batches of 4, so units 0-3 and 4-7 each hold
	// one lease; the second batch panicked.
	if l, r := src.leases.Load(), src.releases.Load(); l != 2 || r != 1 {
		t.Errorf("%d leases / %d releases, want 2 / 1 (the panicking batch's bench dropped)", l, r)
	}
	if n := done.Load(); n != 5 {
		t.Errorf("%d completion callbacks, want 5 (units 0-4)", n)
	}
}

func TestMergeSeedResultsNaNOnZeroBaseline(t *testing.T) {
	cfg := testConfig(4)
	parts := []SeedResult{{
		Config: cfg,
		Seed:   1,
		Area:   map[string]float64{ModelInertial: 0, ModelHM: 1e-12},
	}}
	res := MergeSeedResults(cfg, parts)
	for name, v := range res.Normalized {
		if !math.IsNaN(v) {
			t.Errorf("Normalized[%s] = %g with zero baseline, want NaN", name, v)
		}
	}
}

// TestEvaluateParallelDeterministic: the acceptance property of the
// unit engine — identical Area maps for 1, 4 and 8 workers, all
// bit-identical to the serial Evaluate (run under -race in CI), with a
// cache in front of the pooled bench serving the repeat runs.
func TestEvaluateParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	b := evalBench(t)
	m := cheapModels(t)
	cfg := testConfig(40)
	seeds := []int64{1, 2, 3, 4, 5, 6}

	serial, err := EvaluateBench(b, m, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewGoldenCache()
	src := CachedSource{Gate: "nor2", Bench: b.Params(), Cache: cache, Src: NewGateBenchSource(b)}
	for _, workers := range []int{1, 4, 8} {
		res, err := runGate(src, m, cfg, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.GoldenEv != serial.GoldenEv {
			t.Errorf("workers=%d: golden events %d != serial %d", workers, res.GoldenEv, serial.GoldenEv)
		}
		for _, name := range ModelNames {
			if res.Area[name] != serial.Area[name] {
				t.Errorf("workers=%d: Area[%s] = %g != serial %g",
					workers, name, res.Area[name], serial.Area[name])
			}
			if res.Normalized[name] != serial.Normalized[name] {
				t.Errorf("workers=%d: Normalized[%s] = %g != serial %g",
					workers, name, res.Normalized[name], serial.Normalized[name])
			}
		}
	}
	st := cache.Stats()
	if st.Misses != int64(len(seeds)) {
		t.Errorf("cache misses = %d, want one per seed (%d)", st.Misses, len(seeds))
	}
	if st.Hits != int64(2*len(seeds)) {
		t.Errorf("cache hits = %d, want %d (two warm passes)", st.Hits, 2*len(seeds))
	}
}
