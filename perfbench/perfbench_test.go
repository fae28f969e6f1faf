package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a metric run starts it to time a set-up.
func TestMain(m *testing.M) {
	if os.Getenv(setupChildEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeSizes shrink every workload to a second or two.
var smokeSizes = sizes{
	Setups:        2,
	Fig7Warmup:    1,
	Fig7Seeds:     1,
	Fig7Scale:     40,
	CircWarmup:    1,
	CircTrans:     8,
	CircSeeds:     2,
	ServePool:     4,
	ServeWarmup:   2,
	ServeInterval: 40 * time.Millisecond,
	ServeBudget:   40,
}

// maxUnattributed is the share of traced job time that may fall
// outside every layer span in the smoke runs.
const maxUnattributed = 0.1

// TestSmoke runs every workload briefly, untraced and traced, with its
// verification, and checks the result line carries exactly the
// metrics BENCHMARK.json names for that mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl, seed: 7, seconds: 0.6, trace: traced, scratch: t.TempDir()}
			rep, err := benchmark(context.Background(), o, smokeSizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			r := rep.result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || rep.info["mismatched_jobs"] != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d info=%v", wl, traced, r.Correct, r.Attempted, r.Failed, rep.info)
			}
			want := endToEndUnits
			if traced {
				want = perLayerUnits
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s and a finite value", wl, traced, name, m, unit)
				}
			}
			if !traced {
				for _, name := range []string{"setup_s", "units_per_s", "job_p50_ms", "job_tail_ms", "rss_peak_mb"} {
					if r.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl, name, r.Metrics[name].Value)
					}
				}
				if n, _ := rep.info["speed_samples"].(int); n < 1 {
					t.Errorf("%s: %v host-speed samples in the window, want at least 1", wl, rep.info["speed_samples"])
				}
				continue
			}
			sparseF := r.Metrics["la.sparse.factorizations_per_unit"].Value
			if (wl == wlCircuit) != (sparseF > 0) {
				t.Errorf("%s: la.sparse.factorizations_per_unit = %v; want non-zero only on %s", wl, sparseF, wlCircuit)
			}
			if len(rep.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", wl)
			}
			// The layer spans must cover the traced jobs: time no layer
			// span accounts for stays within the tracing overhead, or
			// within maxUnattributed when the overhead reads smaller.
			un := r.Metrics["trace.unattributed_share"].Value
			over := math.Max(math.Abs(r.Metrics["trace.overhead_job_p50"].Value), math.Abs(r.Metrics["trace.overhead_units_per_s"].Value))
			t.Logf("%s: unattributed share %.4f, tracing overhead %.4f", wl, un, over)
			if un <= 0 || un > math.Max(over, maxUnattributed) {
				t.Errorf("%s: trace.unattributed_share = %v, want in (0, max(%v, %v)]", wl, un, over, maxUnattributed)
			}
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 50, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 70, Parent: 1},  // overlaps a
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1}, // runs past the root
		{ID: 5, Name: "a1", Start: 20, End: 30, Parent: 2},
		{ID: 6, Name: "a2", Start: 25, End: 35, Parent: 2}, // overlaps a1
	}
	got := SelfTimes(spans)
	want := map[int]int64{1: 100 - (60 + 10), 2: 40 - 15, 3: 40, 4: 30, 5: 10, 6: 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("root", 9, -1)
	child := r.Begin("child", 0, -1)
	done := make(chan int)
	go func() {
		u := r.Begin("unit", 0, root) // explicit parent on another goroutine
		inner := r.Begin("inner", 0, -1)
		r.End(inner)
		r.End(u)
		done <- u
	}()
	unit := <-done
	r.End(child)
	r.End(root)
	byID := map[int]Span{}
	for _, s := range r.Spans() {
		byID[s.ID] = s
	}
	if byID[child].Parent != root || byID[unit].Parent != root || byID[unit+1].Parent != unit {
		t.Fatalf("nesting wrong: %+v", byID)
	}
	for id, s := range byID {
		if s.Job != 9 {
			t.Errorf("span %d job = %d, want 9", id, s.Job)
		}
	}
	var nilRec *Recorder
	if id := nilRec.Begin("x", 1, -1); id != 0 || nilRec.Spans() != nil {
		t.Fatal("nil recorder must record nothing")
	}
	nilRec.End(0)
}

func TestTailRule(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	// 35 equal samples, then 5 larger ones: the equal ones are not
	// "beyond" the p75 value although 10 ranks follow it.
	tied := []float64{6, 7, 8, 9, 10}
	for i := 0; i < 35; i++ {
		tied = append(tied, 5)
	}
	cases := []struct {
		name    string
		samples []float64
		v, pct  float64
		ok      bool
	}{
		{"100 samples", hundred, 90, 90, true},
		{"40 samples", hundred[:40], 90, 75, true}, // 61..100
		{"150 samples", append(append([]float64(nil), hundred...), hundred[:50]...), 95, 140.0 / 150 * 100, true}, // 51..100 twice
		{"10 samples", hundred[:10], 100, 100, false},
		{"ties", tied, 10, 100, false},
	}
	for _, c := range cases {
		v, pct, ok := tail(c.samples)
		if v != c.v || pct != c.pct || ok != c.ok {
			t.Errorf("%s: tail = %v, p%v, %v; want %v, p%v, %v", c.name, v, pct, ok, c.v, c.pct, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestSpeedScale checks that a time is scaled by the reference over the
// kernel's median sample near it, and by the whole window's median
// where too few samples lie near it.
func TestSpeedScale(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var samples []speedSample
	for i := 0; i < 60; i++ { // 3 s at the reference speed, then 3 s at half of it
		ns := refSampleNs
		if i >= 30 {
			ns = 2 * refSampleNs
		}
		samples = append(samples, speedSample{at: t0.Add(time.Duration(i) * probeInterval), ns: ns})
	}
	s := newSpeed(samples)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{500 * time.Millisecond, 1},
		{5500 * time.Millisecond, 0.5},
		{time.Minute, 2.0 / 3}, // no samples near: the whole window's median, 1.5 × refSampleNs
	}
	for _, c := range cases {
		if got := s.scaleAt(t0.Add(c.at)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scaleAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := newSpeed(nil).scale(); got != 1 {
		t.Errorf("scale without samples = %v, want 1", got)
	}
}

func TestSpeedProbe(t *testing.T) {
	var p speedProbe
	for i := 0; i < 3; i++ {
		p.sample()
		p.sample() // too soon after the last: no sample
		time.Sleep(probeInterval)
	}
	if len(p.samples) != 3 {
		t.Fatalf("%d samples, want 3", len(p.samples))
	}
	for i, s := range p.samples {
		if s.ns <= 0 || (i > 0 && s.at.Before(p.samples[i-1].at)) {
			t.Fatalf("sample %d = %+v: want a positive time, in time order", i, s)
		}
	}
	var none *speedProbe
	none.sample()
}

// firstJobs returns the jobs a workload generates from seed, as the
// program would receive them.
func firstJobs(t *testing.T, name string, seed int64) []any {
	wl, err := newWorkload(name, seed, defaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	var out []any
	for i := 0; i < 40; i++ {
		if j := wl.next(i); j.spec != nil {
			out = append(out, *j.spec)
		} else {
			out = append(out, j.sjob)
		}
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a := firstJobs(t, name, 11)
		if b := firstJobs(t, name, 11); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different jobs", name)
		}
		if c := firstJobs(t, name, 12); reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds generated the same jobs", name)
		}
	}
}

func TestCPUProfileSplit(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	byPkg, err := cpuByPackage(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(byPkg)
	if len(shares) != len(cpuModules)+len(cpuGroups) {
		t.Fatalf("%d buckets, want %d", len(shares), len(cpuModules)+len(cpuGroups))
	}
	sum := 0.0
	for _, b := range append(append([]string(nil), cpuModules...), cpuGroups...) {
		sum += shares["cpu."+b]
	}
	if len(byPkg) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(byPkg) > 0 && shares["cpu.bench"] == 0 {
		t.Errorf("busy loop in package main not attributed to cpu.bench: %v", byPkg)
	}
	_ = x
}

func TestParsePprofTop(t *testing.T) {
	out := `File: perfbench
Type: cpu
Showing nodes accounting for 300ns, 100% of 300ns total
      flat  flat%   sum%        cum   cum%
     200ns 66.67% 66.67%      250ns 83.33%  hybriddelay/internal/spice.(*Solver).step
      60ns 20.00% 86.67%       60ns 20.00%  hybriddelay/internal/la.(*Dense).Factor (inline)
      40ns 13.33%   100%       40ns 13.33%  hybriddelay/internal/spice.stamp
         0     0%   100%      300ns   100%  runtime.main
`
	got, err := parsePprofTop([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"hybriddelay/internal/spice": 240, "hybriddelay/internal/la": 60, "runtime": 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsePprofTop = %v, want %v", got, want)
	}
	if _, err := parsePprofTop([]byte("no table")); err == nil {
		t.Fatal("output without a table must fail")
	}
	dropped := strings.Replace(out, "      40ns 13.33%   100%       40ns 13.33%  hybriddelay/internal/spice.stamp\n", "", 1)
	if _, err := parsePprofTop([]byte(dropped)); err == nil {
		t.Fatal("rows that do not add up to the total must fail")
	}
}

func TestCPUBucket(t *testing.T) {
	cases := map[string]string{
		"hybriddelay/internal/spice.(*Solver).step":            "spice",
		"hybriddelay/internal/la/sparse.(*LU).Refactor":        "la.sparse",
		"hybriddelay/internal/la.(*Dense).Factor":              "la",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "runtime",
		"encoding/json.(*decodeState).object":                  "stdlib",
		"main.(*tracer).gateUnit":                              "bench",
		"hybriddelay/internal/eval.(*Runner).RunContext.func1": "eval",
	}
	for fn, want := range cases {
		if got := cpuBucket(packageOf(fn)); got != want {
			t.Errorf("cpuBucket(packageOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1", "-scratch", t.TempDir()}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want a non-zero exit and no result", code, out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, workloadNames) {
		t.Errorf("workloads %v, want %v", got, workloadNames)
	}
	check := func(kind string, list []named, want map[string]string) {
		seen := map[string]string{}
		for _, m := range list {
			seen[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(seen, want) {
			t.Errorf("%s metrics in BENCHMARK.json %v, printed %v", kind, seen, want)
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, perLayerUnits)
}

// TestCanonicalUndefinedRatio checks that results carrying an undefined
// (NaN) normalized ratio are still compared, and told apart.
func TestCanonicalUndefinedRatio(t *testing.T) {
	mk := func(v float64) *session.Result {
		return &session.Result{Kind: session.KindCircuit, Circuit: &eval.CircuitResult{
			Normalized:      map[string]map[string]float64{"s0": {"hm": v}},
			TotalNormalized: map[string]float64{"hm": v},
		}}
	}
	nan, nan2, one := mk(math.NaN()), mk(math.NaN()), mk(1)
	a, err := canonical(nan)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := canonical(nan2)
	c, _ := canonical(one)
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Fatalf("canonical: NaN results equal %v, NaN vs 1 equal %v", bytes.Equal(a, b), bytes.Equal(a, c))
	}
	if !math.IsNaN(nan.Circuit.Normalized["s0"]["hm"]) {
		t.Fatal("canonical modified its argument")
	}
}

// TestVerifyCatchesMismatch checks that verification fails a job whose
// result differs from the reference replay.
func TestVerifyCatchesMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs golden transients")
	}
	e, err := newEnv(t.TempDir(), spice.DenseExact, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ctx := context.Background()
	sj := session.GateJob{Gate: "nor2", Configs: fig7Configs(40)[:1], Seeds: []int64{3}}
	var jobs []*job
	for i := 0; i < 2; i++ {
		res, err := e.sess.Evaluate(ctx, sj)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, &job{idx: i, sjob: sj, res: res})
	}
	jobs[1].res.Gate[0].Area["hm"] *= 1 + 1e-12
	n, err := verify(ctx, e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || jobs[0].err != nil || jobs[1].err == nil {
		t.Fatalf("mismatches = %d, errs %v / %v; want only the altered job failed", n, jobs[0].err, jobs[1].err)
	}
}
