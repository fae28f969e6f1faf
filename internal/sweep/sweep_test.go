package sweep

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

// testStimuli returns a two-flavour stimulus axis small enough for
// analog test runs.
func testStimuli(transitions int) []Stimulus {
	return []Stimulus{
		{Mode: gen.Local, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: transitions},
		{Mode: gen.Global, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: transitions},
	}
}

// fastBench returns coarse-step bench parameters for quick analog runs.
func fastBench() *nor.Params {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	return &p
}

// testSpec is the acceptance grid: 2 gates × 2 VDD points × 2 stimulus
// flavours over 2 seeds (8 scenarios, 16 units).
func testSpec(transitions int) Spec {
	return Spec{
		Gates:    []string{"nor2", "nand2"},
		VDDScale: []float64{1, 0.92},
		Stimuli:  testStimuli(transitions),
		Seeds:    []int64{1, 2},
		Bench:    fastBench(),
	}
}

func TestExpandGridOrder(t *testing.T) {
	spec := Spec{
		Gates:     []string{"nor2", "nor3"},
		VDDScale:  []float64{1, 0.9},
		LoadScale: []float64{1, 2},
		Stimuli:   testStimuli(10),
		Bench:     fastBench(),
	}
	scenarios, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2*2*2*2 {
		t.Fatalf("expanded %d scenarios, want 16", len(scenarios))
	}
	base := spec.baseParams()
	for i, sc := range scenarios {
		if sc.Index != i {
			t.Errorf("scenario %d has Index %d", i, sc.Index)
		}
		wantInputs := 2
		if sc.Gate == "nor3" {
			wantInputs = 3
		}
		if sc.Config.Inputs != wantInputs {
			t.Errorf("scenario %d (%s): Config.Inputs = %d, want %d", i, sc.Gate, sc.Config.Inputs, wantInputs)
		}
		if got, want := sc.Params.Supply.VDD, base.Supply.VDD*sc.VDDScale; got != want {
			t.Errorf("scenario %d: VDD = %g, want %g", i, got, want)
		}
		if got, want := sc.Params.Supply.Vth, base.Supply.Vth*sc.VDDScale; got != want {
			t.Errorf("scenario %d: Vth = %g, want %g", i, got, want)
		}
		if got, want := sc.Params.CO, base.CO*sc.LoadScale; got != want {
			t.Errorf("scenario %d: CO = %g, want %g", i, got, want)
		}
		if sc.Config.Start != 200*waveform.Pico {
			t.Errorf("scenario %d: Start = %g, want 200 ps default", i, sc.Config.Start)
		}
	}
	// Grid order: gate-major, then VDD, load, stimulus.
	if scenarios[0].Gate != "nor2" || scenarios[8].Gate != "nor3" {
		t.Errorf("gate-major order violated: %q then %q", scenarios[0].Gate, scenarios[8].Gate)
	}
	if scenarios[0].VDDScale != 1 || scenarios[4].VDDScale != 0.9 {
		t.Errorf("VDD order violated: %g then %g", scenarios[0].VDDScale, scenarios[4].VDDScale)
	}
	if scenarios[0].LoadScale != 1 || scenarios[2].LoadScale != 2 {
		t.Errorf("load order violated: %g then %g", scenarios[0].LoadScale, scenarios[2].LoadScale)
	}
	if scenarios[0].Stimulus.Mode != gen.Local || scenarios[1].Stimulus.Mode != gen.Global {
		t.Error("stimulus order violated")
	}
}

func TestExpandValidation(t *testing.T) {
	valid := func() Spec { return testSpec(10) }
	cases := []struct {
		name    string
		mutate  func(*Spec)
		errPart string
	}{
		{"unknown gate", func(s *Spec) { s.Gates = []string{"xor7"} }, "unknown gate"},
		{"duplicate gate", func(s *Spec) { s.Gates = []string{"nor2", "nor2"} }, "listed twice"},
		{"zero vdd scale", func(s *Spec) { s.VDDScale = []float64{0} }, "VDD scale"},
		{"negative vdd scale", func(s *Spec) { s.VDDScale = []float64{-1} }, "VDD scale"},
		{"nan vdd scale", func(s *Spec) { s.VDDScale = []float64{nan()} }, "VDD scale"},
		{"zero load scale", func(s *Spec) { s.LoadScale = []float64{0} }, "load scale"},
		{"no stimuli", func(s *Spec) { s.Stimuli = nil }, "no stimuli"},
		{"bad mu", func(s *Spec) { s.Stimuli[0].Mu = 0 }, "gap distribution"},
		{"negative sigma", func(s *Spec) { s.Stimuli[0].Sigma = -1e-12 }, "gap distribution"},
		{"no transitions", func(s *Spec) { s.Stimuli[0].Transitions = 0 }, "transition"},
		{"too many transitions", func(s *Spec) { s.Stimuli[0].Transitions = 2_000_000_000 }, "transitions exceed 65536"},
		{"bad mode", func(s *Spec) { s.Stimuli[0].Mode = gen.Mode(7) }, "unknown mode"},
		// Duplicate axis values would alias golden-cache keys across
		// scenarios and make per-scenario hit accounting depend on
		// scheduling — rejected on every axis.
		{"duplicate vdd scale", func(s *Spec) { s.VDDScale = []float64{1, 1} }, "listed twice"},
		{"duplicate load scale", func(s *Spec) { s.LoadScale = []float64{2, 2} }, "listed twice"},
		{"duplicate stimulus", func(s *Spec) { s.Stimuli = append(s.Stimuli, s.Stimuli[0]) }, "listed twice"},
		{"duplicate seed", func(s *Spec) { s.Seeds = []int64{1, 2, 1} }, "listed twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := valid()
			tc.mutate(&spec)
			_, err := Expand(spec)
			if err == nil {
				t.Fatalf("Expand accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
	// Defaults: empty gate/scale axes are filled in.
	scenarios, err := Expand(Spec{Stimuli: testStimuli(10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("default axes expanded to %d scenarios, want 2", len(scenarios))
	}
	if scenarios[0].Gate != "nor2" || scenarios[0].VDDScale != 1 || scenarios[0].LoadScale != 1 {
		t.Errorf("default scenario = %+v", scenarios[0])
	}
}

// hugeGrid is a 300 x 300 x 1 grid: 90,000 scenarios of the default
// gate, beyond MaxScenarios.
func hugeGrid() Spec {
	spec := Spec{Stimuli: testStimuli(10)[:1]}
	for i := 0; i < 300; i++ {
		spec.VDDScale = append(spec.VDDScale, 1+float64(i)/1000)
		spec.LoadScale = append(spec.LoadScale, 1+float64(i)/1000)
	}
	return spec
}

// TestExpandRejectsHugeGrid: a grid whose axis product exceeds
// MaxScenarios is rejected before the scenario list is allocated.
func TestExpandRejectsHugeGrid(t *testing.T) {
	spec := hugeGrid()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Expand(spec)
	runtime.ReadMemStats(&after)
	want := "sweep: grid expands to 90000 scenarios, exceeds 65536"
	if err == nil || err.Error() != want {
		t.Fatalf("Expand error = %v, want %q", err, want)
	}
	if grew, list := after.TotalAlloc-before.TotalAlloc, 90000*uint64(unsafe.Sizeof(Scenario{})); grew >= list {
		t.Errorf("Expand allocated %d bytes before rejecting (the scenario list is %d)", grew, list)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestSpecSeedList(t *testing.T) {
	if got := (Spec{Seeds: []int64{7, 9}}).SeedList(); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("explicit seeds: %v", got)
	}
	if got := (Spec{}).SeedList(); len(got) != 1 || got[0] != 1 {
		t.Errorf("default seeds: %v", got)
	}
	if got := (Spec{SeedCount: 3, BaseSeed: 10}).SeedList(); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Errorf("counted seeds: %v", got)
	}
}

// TestRunSweepDeterministicAcrossWorkers is the acceptance property of
// the sweep engine: over a 3-axis grid (2 gates × 2 VDD points × 2
// stimulus flavours), the report — including its JSON and CSV encodings
// — is byte-identical for 1 and 8 workers (run under -race in CI).
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	spec := testSpec(12)
	encode := func(workers int) (string, string) {
		t.Helper()
		rep, err := RunSweep(spec, &Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rep.ClearTimings()
		var j, c bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := encode(1)
	j8, c8 := encode(8)
	if j1 != j8 {
		t.Errorf("JSON reports differ between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", j1, j8)
	}
	if c1 != c8 {
		t.Errorf("CSV reports differ between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", c1, c8)
	}
	// The encodings carry the per-scenario cache-accounting columns.
	if !strings.Contains(c1, "cache_hits") || !strings.Contains(j1, "\"hit_rate\"") {
		t.Error("report encodings lost the cache-accounting fields")
	}
}

// TestRunSweepOperatingPointsNeverCollide is the cross-scenario cache
// regression test: every scenario differs from every other in at least
// one axis that is part of the golden cache key (bench parameters or
// stimulus configuration), so a sweep-wide shared cache must compute
// every unit exactly once — a false hit would mean two operating
// points aliased onto one key and one of them was served the wrong
// gate's (or wrong voltage's) golden trace. Before the cache key
// incorporated the bench parameters, the VDD=1.0 and VDD=0.92 rows of
// this grid collided and this test failed.
func TestRunSweepOperatingPointsNeverCollide(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	spec := testSpec(10)
	cache := eval.NewGoldenCache()
	rep, err := RunSweep(spec, &Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.TotalUnits
	if st := cache.Stats(); st.Hits != 0 || st.Misses != int64(total) || st.Entries != total {
		t.Errorf("shared cache stats %+v over distinct operating points, want 0 hits / %d misses / %d entries",
			st, total, total)
	}
	for _, sc := range rep.Scenarios {
		if sc.CacheHits != 0 || sc.CacheMisses != int64(sc.Seeds) {
			t.Errorf("scenario %d (%s vdd=%g): hits=%d misses=%d, want 0/%d — an operating point aliased another's traces",
				sc.Index, sc.Gate, sc.VDDScale, sc.CacheHits, sc.CacheMisses, sc.Seeds)
		}
		if sc.HitRate != 0 {
			t.Errorf("scenario %d: hit rate %g on a cold cache", sc.Index, sc.HitRate)
		}
	}
	// The same grid differs between operating points: the scaled supply
	// must actually change the golden reference, not just the key.
	base, scaled := rep.Scenarios[0], rep.Scenarios[2]
	if base.Gate != scaled.Gate || base.Mode != scaled.Mode || base.VDDScale == scaled.VDDScale {
		t.Fatalf("grid order changed: %+v vs %+v", base, scaled)
	}
	if base.WorstSeedArea == scaled.WorstSeedArea && base.GoldenEvents == scaled.GoldenEvents &&
		base.Normalized["hm"] == scaled.Normalized["hm"] {
		t.Error("VDD scaling left every observable identical — operating point not applied to the bench")
	}
}

// TestRunSweepSharedCacheHitRate: re-running a sweep against the same
// shared cache serves every golden trace from memory and reports full
// per-scenario hit rates, with identical accuracy numbers.
func TestRunSweepSharedCacheHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	spec := Spec{
		Gates:    []string{"nor2"},
		VDDScale: []float64{1, 0.95},
		Stimuli:  testStimuli(10),
		Seeds:    []int64{1, 2},
		Bench:    fastBench(),
	}
	cache := eval.NewGoldenCache()
	cold, err := RunSweep(spec, &Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunSweep(spec, &Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range warm.Scenarios {
		if sc.HitRate != 1 || sc.CacheMisses != 0 || sc.CacheHits != int64(sc.Seeds) {
			t.Errorf("warm scenario %d: hits=%d misses=%d rate=%g, want all hits", i, sc.CacheHits, sc.CacheMisses, sc.HitRate)
		}
		for name, v := range sc.Normalized {
			if cold.Scenarios[i].Normalized[name] != v {
				t.Errorf("warm scenario %d: Normalized[%s] = %v != cold %v", i, name, v, cold.Scenarios[i].Normalized[name])
			}
		}
		if sc.WorstSeed != cold.Scenarios[i].WorstSeed || sc.WorstSeedArea != cold.Scenarios[i].WorstSeedArea {
			t.Errorf("warm scenario %d: worst seed %d/%g != cold %d/%g", i,
				sc.WorstSeed, sc.WorstSeedArea, cold.Scenarios[i].WorstSeed, cold.Scenarios[i].WorstSeedArea)
		}
	}
}

// TestRunSweepPrepareError: an unusable operating point fails the sweep
// with a descriptive error instead of hanging the pool.
func TestRunSweepPrepareError(t *testing.T) {
	spec := Spec{
		Stimuli: testStimuli(4),
		Bench:   &nor.Params{}, // zero-value params: invalid supply
	}
	_, err := RunSweep(spec, &Options{Workers: 2})
	if err == nil {
		t.Fatal("sweep with an invalid bench succeeded")
	}
	if !strings.Contains(err.Error(), "operating point") {
		t.Errorf("error %q does not identify the failing operating point", err)
	}
}

// TestRunSweepWorstSeed: the reported worst seed is the per-seed
// maximum of the hybrid model's deviation area.
func TestRunSweepWorstSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	spec := Spec{
		Gates:   []string{"nor2"},
		Stimuli: testStimuli(10)[:1],
		Seeds:   []int64{1, 2, 3},
		Bench:   fastBench(),
	}
	rep, err := RunSweep(spec, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc := rep.Scenarios[0]
	found := false
	for _, s := range spec.Seeds {
		if s == sc.WorstSeed {
			found = true
		}
	}
	if !found {
		t.Errorf("worst seed %d not in the evaluated seed list %v", sc.WorstSeed, spec.Seeds)
	}
	if sc.WorstSeedArea < 0 {
		t.Errorf("negative worst-seed area %g", sc.WorstSeedArea)
	}
	if sc.GoldenEvents <= 0 {
		t.Errorf("no golden events observed")
	}
}

// TestRunSweepParamCacheReuse: two sweeps of the same spec through one
// shared parametrization cache prepare each operating point exactly
// once — the warm run re-fits nothing and still produces a
// byte-identical report.
func TestRunSweepParamCacheReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	spec := testSpec(10)
	params := eval.NewParamCache()
	encode := func() string {
		t.Helper()
		// Each run gets a private golden cache (as a cold caller would),
		// so the reports stay comparable; only the parametrization cache
		// is shared across the calls.
		rep, err := RunSweep(spec, &Options{Workers: 4, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		rep.ClearTimings()
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cold := encode()
	st := params.Stats()
	points := st.Entries
	if points == 0 || st.Misses != int64(points) {
		t.Fatalf("cold run stats %+v, want one miss per operating point", st)
	}
	warm := encode()
	st = params.Stats()
	if st.Misses != int64(points) {
		t.Errorf("warm run re-prepared: %d misses, want still %d", st.Misses, points)
	}
	if st.Hits < int64(points) {
		t.Errorf("warm run hit %d times, want at least %d (one per operating point)", st.Hits, points)
	}
	if cold != warm {
		t.Errorf("warm report differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

// TestRunSweepContextCancelled: a cancelled context aborts the sweep
// before (or during) its first phase and reports the cancellation, not
// a unit failure.
func TestRunSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSweepContext(ctx, testSpec(4), &Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
}
