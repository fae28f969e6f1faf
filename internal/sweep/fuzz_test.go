package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/waveform"
)

// FuzzParseSpec feeds arbitrary grid files through ParseSpec and
// Expand — what `hybridlab sweep -grid` and a served sweep job do
// before any unit runs. Nothing may panic, and every accepted grid
// stays within MaxScenarios scenarios and MaxSeedCount seeds.
func FuzzParseSpec(f *testing.F) {
	// The README's sweep grid.
	f.Add([]byte(`{
    "gates": ["nor2", "nand2"],
    "stimuli": [{"mode": "GLOBAL", "mu": 2e-10, "sigma": 1e-10, "transitions": 100}],
    "seed_count": 3}`))
	// The README's netlist on a circuits axis.
	f.Add([]byte(`{"circuits": [{"name": "nor-invchain", "inputs": ["a", "b"], "outputs": ["y0", "y1"],
  "instances": [{"name": "nor", "gate": "nor2", "inputs": ["a", "b"], "output": "y0"},
    {"name": "inv1", "gate": "nor2", "inputs": ["y0", "y0"], "output": "y1"}]}],
  "vdd_scale": [1, 0.9], "load_scale": [1, 2],
  "stimuli": [{"mode": "LOCAL", "mu": 2e-10, "sigma": 1e-10, "transitions": 10}]}`))
	// The test suite's specs.
	for _, spec := range []Spec{
		testSpec(10),
		{Gates: []string{"nor2", "nor3"}, VDDScale: []float64{1, 0.9}, LoadScale: []float64{1, 1.5},
			Stimuli: testStimuli(10), SeedCount: 2, BaseSeed: 7},
		{Stimuli: []Stimulus{{Mode: gen.Local, Mu: 200 * waveform.Pico, Transitions: 1}}, Seeds: []int64{3, 1}},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		scenarios, err := Expand(spec)
		if err != nil {
			return
		}
		if len(scenarios) > MaxScenarios {
			t.Fatalf("accepted grid expands to %d scenarios", len(scenarios))
		}
		if n := len(spec.SeedList()); n > MaxSeedCount {
			t.Fatalf("accepted grid carries %d seeds", n)
		}
	})
}
