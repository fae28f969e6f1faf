package gen

import (
	"math"
	"strings"
	"testing"

	"hybriddelay/internal/waveform"
)

func TestPaperConfigs(t *testing.T) {
	cfgs := PaperConfigs()
	if len(cfgs) != 4 {
		t.Fatalf("got %d configs, want 4", len(cfgs))
	}
	wantNames := []string{
		"100/50 - LOCAL", "200/100 - LOCAL",
		"2000/1000 - GLOBAL", "5000/5 - GLOBAL",
	}
	for i, c := range cfgs {
		if c.Name() != wantNames[i] {
			t.Errorf("config %d name = %q, want %q", i, c.Name(), wantNames[i])
		}
		if c.Inputs != 2 {
			t.Errorf("config %d inputs = %d", i, c.Inputs)
		}
	}
	if cfgs[3].Transitions != 250 {
		t.Errorf("last config transitions = %d, want 250 (paper)", cfgs[3].Transitions)
	}
	for _, c := range cfgs[:3] {
		if c.Transitions != 500 {
			t.Errorf("config %s transitions = %d, want 500", c.Name(), c.Transitions)
		}
	}
}

func TestTracesDeterministic(t *testing.T) {
	cfg := PaperConfigs()[0]
	a1, err := Traces(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Traces(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i].NumEvents() != a2[i].NumEvents() {
			t.Fatal("generation not deterministic")
		}
		for j := range a1[i].Events {
			if a1[i].Events[j] != a2[i].Events[j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
	b, err := Traces(cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a1 {
		if a1[i].NumEvents() != b[i].NumEvents() {
			same = false
			break
		}
	}
	if same && a1[0].NumEvents() > 0 && a1[0].Events[0] == b[0].Events[0] {
		t.Error("different seeds produced identical traces")
	}
}

func TestTracesCountAndValidity(t *testing.T) {
	for _, cfg := range PaperConfigs() {
		trs, err := Traces(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, tr := range trs {
			if err := tr.Validate(); err != nil {
				t.Errorf("%s: invalid trace: %v", cfg.Name(), err)
			}
			if tr.Initial {
				t.Errorf("%s: inputs must start low", cfg.Name())
			}
			total += tr.NumEvents()
		}
		if total != cfg.Transitions {
			t.Errorf("%s: %d transitions generated, want %d", cfg.Name(), total, cfg.Transitions)
		}
	}
}

// TestLocalGapStatistics: LOCAL gaps follow the configured distribution
// (loose bounds; the generator clamps at MinGap).
func TestLocalGapStatistics(t *testing.T) {
	cfg := Config{
		Mu: 100e-12, Sigma: 10e-12, Mode: Local,
		Inputs: 1, Transitions: 4000, Start: 0,
	}
	trs, err := Traces(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := trs[0].Events
	var gaps []float64
	prev := 0.0
	for _, e := range ev {
		gaps = append(gaps, e.Time-prev)
		prev = e.Time
	}
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	if math.Abs(mean-100e-12) > 3e-12 {
		t.Errorf("mean gap = %g, want ~100 ps", mean)
	}
	vr := 0.0
	for _, g := range gaps {
		vr += (g - mean) * (g - mean)
	}
	sd := math.Sqrt(vr / float64(len(gaps)))
	if math.Abs(sd-10e-12) > 2e-12 {
		t.Errorf("gap sd = %g, want ~10 ps", sd)
	}
}

// TestGlobalSpreadsAcrossInputs: GLOBAL mode distributes transitions over
// both inputs and keeps per-input traces alternating.
func TestGlobalSpreadsAcrossInputs(t *testing.T) {
	cfg := Config{
		Mu: 100e-12, Sigma: 5e-12, Mode: Global,
		Inputs: 2, Transitions: 400, Start: 0,
	}
	trs, err := Traces(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := trs[0].NumEvents(), trs[1].NumEvents()
	if n0+n1 != 400 {
		t.Fatalf("total events %d", n0+n1)
	}
	if n0 < 120 || n1 < 120 {
		t.Errorf("unbalanced assignment: %d vs %d", n0, n1)
	}
}

// TestGlobalSeparation: in GLOBAL mode, transitions on different inputs
// are separated by at least roughly one gap — close pairs are rare.
func TestGlobalSeparation(t *testing.T) {
	cfg := Config{
		Mu: 2000e-12, Sigma: 1000e-12, Mode: Global,
		Inputs: 2, Transitions: 500, Start: 0,
	}
	trs, err := Traces(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	close := 0
	for _, ea := range trs[0].Events {
		for _, eb := range trs[1].Events {
			if math.Abs(ea.Time-eb.Time) < 100e-12 {
				close++
			}
		}
	}
	if close > 50 {
		t.Errorf("%d close cross-input pairs; GLOBAL should make them unlikely", close)
	}
}

func TestTracesValidation(t *testing.T) {
	if _, err := Traces(Config{Inputs: 0, Transitions: 1, Mu: 1}, 0); err == nil {
		t.Error("zero inputs accepted")
	}
	if _, err := Traces(Config{Inputs: 1, Transitions: 0, Mu: 1}, 0); err == nil {
		t.Error("zero transitions accepted")
	}
	if _, err := Traces(Config{Inputs: 1, Transitions: 1, Mu: 0}, 0); err == nil {
		t.Error("zero mu accepted")
	}
	if _, err := Traces(Config{Inputs: 1, Transitions: 1, Mu: 1, Mode: Mode(99)}, 0); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	valid := Config{Mu: 100e-12, Sigma: 50e-12, Mode: Local, Inputs: 2, Transitions: 10, Start: 200e-12}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string // substring the error must carry; "" = valid
	}{
		{"valid", func(c *Config) {}, ""},
		{"valid zero sigma", func(c *Config) { c.Sigma = 0 }, ""},
		{"valid zero start", func(c *Config) { c.Start = 0 }, ""},
		{"valid explicit min gap", func(c *Config) { c.MinGap = 2e-12 }, ""},
		{"zero inputs", func(c *Config) { c.Inputs = 0 }, "input"},
		{"negative inputs", func(c *Config) { c.Inputs = -3 }, "input"},
		{"zero transitions", func(c *Config) { c.Transitions = 0 }, "transition"},
		{"negative transitions", func(c *Config) { c.Transitions = -1 }, "transition"},
		{"valid max transitions", func(c *Config) { c.Transitions = MaxTransitions }, ""},
		{"too many transitions", func(c *Config) { c.Transitions = MaxTransitions + 1 }, "exceed 65536"},
		{"huge transitions", func(c *Config) { c.Transitions = 2_000_000_000 }, "exceed 65536"},
		{"zero mu", func(c *Config) { c.Mu = 0 }, "mu"},
		{"negative mu", func(c *Config) { c.Mu = -100e-12 }, "mu"},
		{"NaN mu", func(c *Config) { c.Mu = nan }, "mu"},
		{"infinite mu", func(c *Config) { c.Mu = inf }, "mu"},
		{"negative sigma", func(c *Config) { c.Sigma = -1e-12 }, "sigma"},
		{"NaN sigma", func(c *Config) { c.Sigma = nan }, "sigma"},
		{"infinite sigma", func(c *Config) { c.Sigma = inf }, "sigma"},
		{"negative start", func(c *Config) { c.Start = -1e-12 }, "start"},
		{"NaN start", func(c *Config) { c.Start = nan }, "start"},
		{"infinite start", func(c *Config) { c.Start = inf }, "start"},
		{"NaN min gap", func(c *Config) { c.MinGap = nan }, "min_gap"},
		{"infinite min gap", func(c *Config) { c.MinGap = inf }, "min_gap"},
		{"unknown mode", func(c *Config) { c.Mode = Mode(7) }, "mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantSub == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
			// Traces must reject exactly what Validate rejects — no
			// silent NaN traces from a bad distribution.
			if _, terr := Traces(cfg, 1); terr == nil {
				t.Errorf("Traces accepted a config Validate rejects")
			}
		})
	}
}

// TestTracesFiniteTimes pins the property the validation exists for:
// every generated transition time is finite and strictly increasing per
// input, for valid configs across both modes.
func TestTracesFiniteTimes(t *testing.T) {
	for _, mode := range []Mode{Local, Global} {
		cfg := Config{Mu: 100e-12, Sigma: 80e-12, Mode: mode, Inputs: 3, Transitions: 60}
		trs, err := Traces(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range trs {
			last := math.Inf(-1)
			for _, e := range tr.Events {
				if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
					t.Fatalf("%s input %d: non-finite transition time %g", mode, i, e.Time)
				}
				if e.Time <= last {
					t.Fatalf("%s input %d: non-increasing transition time %g after %g", mode, i, e.Time, last)
				}
				last = e.Time
			}
		}
	}
}

func TestHorizon(t *testing.T) {
	cfg := Config{Mu: 100e-12, Sigma: 0, Mode: Local, Inputs: 2, Transitions: 10, Start: 0}
	trs, err := Traces(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := Horizon(trs, 500e-12)
	last := 0.0
	for _, tr := range trs {
		if n := tr.NumEvents(); n > 0 && tr.Events[n-1].Time > last {
			last = tr.Events[n-1].Time
		}
	}
	if math.Abs(h-(last+500e-12)) > 1e-15 {
		t.Errorf("horizon = %g, want %g", h, last+500e-12)
	}
	if got := Horizon(nil, 1e-9); got != 1e-9 {
		t.Errorf("empty horizon = %g", got)
	}
}

func TestModeString(t *testing.T) {
	if Local.String() != "LOCAL" || Global.String() != "GLOBAL" {
		t.Error("mode names wrong")
	}
	_ = waveform.Pico // keep import for the Ps-based name test below
	c := Config{Mu: 100 * waveform.Pico, Sigma: 50 * waveform.Pico, Mode: Local}
	if c.Name() != "100/50 - LOCAL" {
		t.Errorf("name = %q", c.Name())
	}
}

func TestModeTextRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{
		{"LOCAL", Local}, {"local", Local}, {" Local ", Local},
		{"GLOBAL", Global}, {"global", Global},
	} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseMode("sideways"); err == nil {
		t.Error("unknown mode name accepted")
	}

	for _, m := range []Mode{Local, Global} {
		b, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Mode
		if err := back.UnmarshalText(b); err != nil || back != m {
			t.Errorf("round trip %v -> %s -> %v (%v)", m, b, back, err)
		}
	}
	if _, err := Mode(9).MarshalText(); err == nil {
		t.Error("invalid mode marshalled")
	}
	var m Mode
	if err := m.UnmarshalText([]byte("nope")); err == nil {
		t.Error("invalid mode text unmarshalled")
	}
}
