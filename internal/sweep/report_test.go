package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gen"
)

func TestRatioJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   eval.Ratio
		want string
	}{
		{eval.Ratio(0.5), "0.5"},
		{eval.Ratio(1), "1"},
		{eval.Ratio(math.NaN()), "null"},
	}
	for _, tc := range cases {
		b, err := json.Marshal(tc.in)
		if err != nil {
			t.Fatalf("marshal %v: %v", tc.in, err)
		}
		if string(b) != tc.want {
			t.Errorf("marshal %v = %s, want %s", tc.in, b, tc.want)
		}
		var back eval.Ratio
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if tc.in.IsDefined() != back.IsDefined() {
			t.Errorf("round trip changed definedness: %v -> %v", tc.in, back)
		}
		if tc.in.IsDefined() && back != tc.in {
			t.Errorf("round trip %v -> %v", tc.in, back)
		}
	}
}

// sampleReport builds a small synthetic report covering the encoders'
// edge cases (undefined ratio, missing model entry).
func sampleReport() *Report {
	return &Report{
		Seeds:      []int64{1, 2},
		ModelNames: []string{"inertial", "hm", "ghost"},
		Scenarios: []ScenarioResult{
			{
				Index: 0, Gate: "nor2", VDDScale: 1, LoadScale: 1,
				Mode: "LOCAL", MuPs: 100, SigmaPs: 50, Transitions: 24, Seeds: 2,
				Normalized:   map[string]eval.Ratio{"inertial": 1, "hm": eval.Ratio(0.25)},
				GoldenEvents: 12, WorstSeed: 2, WorstSeedArea: 3e-12,
				CacheHits: 1, CacheMisses: 1, HitRate: 0.5, WallSeconds: 1.25,
			},
			{
				Index: 1, Gate: "nand2", VDDScale: 0.9, LoadScale: 2,
				Mode: "GLOBAL", MuPs: 2000, SigmaPs: 1000, Transitions: 24, Seeds: 2,
				Normalized:   map[string]eval.Ratio{"inertial": eval.Ratio(math.NaN()), "hm": eval.Ratio(math.NaN())},
				GoldenEvents: 0, WorstSeed: 1, WorstSeedArea: 0,
				CacheHits: 0, CacheMisses: 2, HitRate: 0, WallSeconds: 0.5,
			},
		},
		TotalUnits:  4,
		Cache:       eval.CacheStats{Hits: 1, Misses: 3, Entries: 3},
		WallSeconds: 2.5,
	}
}

func TestWriteJSONHandlesUndefinedRatios(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with NaN ratios: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if got := back.Scenarios[1].Normalized["hm"]; got.IsDefined() {
		t.Errorf("undefined ratio decoded as %v, want NaN", got)
	}
	if got := back.Scenarios[0].Normalized["hm"]; float64(got) != 0.25 {
		t.Errorf("defined ratio decoded as %v, want 0.25", got)
	}
}

func TestWriteCSVShape(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(rep.Scenarios) {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(rep.Scenarios))
	}
	header := strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(header) {
			t.Errorf("row has %d fields, header has %d: %s", got, len(header), line)
		}
	}
	if !strings.Contains(lines[0], "norm_hm") || !strings.Contains(lines[0], "norm_ghost") {
		t.Errorf("header missing model columns: %s", lines[0])
	}
	// The ghost model has no entries: its column renders NaN, not a crash.
	if !strings.Contains(lines[1], "NaN") {
		t.Errorf("missing-model column not rendered as NaN: %s", lines[1])
	}
	if !strings.Contains(lines[1], "1250") {
		t.Errorf("wall_ms column missing (1.25 s = 1250 ms): %s", lines[1])
	}
}

func TestClearTimings(t *testing.T) {
	rep := sampleReport()
	rep.ClearTimings()
	if rep.WallSeconds != 0 {
		t.Error("report wall time not cleared")
	}
	for i, sc := range rep.Scenarios {
		if sc.WallSeconds != 0 {
			t.Errorf("scenario %d wall time not cleared", i)
		}
	}
}

func TestParseSpec(t *testing.T) {
	in := `{
		"gates": ["nor2", "nand2"],
		"vdd_scale": [1.0, 0.9],
		"stimuli": [
			{"mode": "local", "mu": 100e-12, "sigma": 50e-12, "transitions": 40},
			{"mode": "GLOBAL", "mu": 2000e-12, "sigma": 1000e-12, "transitions": 40}
		],
		"seed_count": 3
	}`
	spec, err := ParseSpec(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Gates) != 2 || len(spec.VDDScale) != 2 || len(spec.Stimuli) != 2 {
		t.Fatalf("parsed spec %+v", spec)
	}
	if spec.Stimuli[0].Mode != gen.Local || spec.Stimuli[1].Mode != gen.Global {
		t.Errorf("modes parsed as %v/%v", spec.Stimuli[0].Mode, spec.Stimuli[1].Mode)
	}
	if spec.Stimuli[0].Mu != 100e-12 {
		t.Errorf("mu parsed as %g", spec.Stimuli[0].Mu)
	}
	if got := spec.SeedList(); len(got) != 3 || got[0] != 1 {
		t.Errorf("seed list %v", got)
	}

	if _, err := ParseSpec(strings.NewReader(`{"stimuli": [{"mode": "sideways"}]}`)); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := ParseSpec(strings.NewReader(`{"bogus_field": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}
