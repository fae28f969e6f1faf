package eval

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestResultJSONUndefinedRatios: gate and circuit results with an
// undefined (NaN) ratio encode it as null and decode it back to NaN;
// defined ratios round-trip exactly.
func TestResultJSONUndefinedRatios(t *testing.T) {
	nan := math.NaN()
	tenth := 0.1
	odd := tenth + 0.2 // 0.30000000000000004: shortest-repr encoding must survive
	run := RunResult{Seeds: []int64{1}, Area: map[string]float64{ModelHM: 0},
		Normalized: map[string]float64{ModelHM: nan, ModelInertial: odd}, GoldenEv: 3}
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"hm":null`) || !strings.Contains(string(b), `"inertial":0.30000000000000004`) {
		t.Fatalf("RunResult JSON %s", b)
	}
	var back RunResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.Normalized[ModelHM]) || back.Normalized[ModelInertial] != odd || back.GoldenEv != 3 || len(back.Seeds) != 1 {
		t.Fatalf("RunResult round trip: %+v", back)
	}

	circ := CircuitResult{Netlist: "c", Nets: []string{"s"},
		Normalized:      map[string]map[string]float64{"s": {ModelHM: nan}, "t": {ModelHM: 2}},
		TotalNormalized: map[string]float64{ModelHM: nan}}
	b, err = json.Marshal(&circ)
	if err != nil {
		t.Fatal(err)
	}
	var cback CircuitResult
	if err := json.Unmarshal(b, &cback); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(cback.Normalized["s"][ModelHM]) || cback.Normalized["t"][ModelHM] != 2 ||
		!math.IsNaN(cback.TotalNormalized[ModelHM]) || cback.Netlist != "c" {
		t.Fatalf("CircuitResult round trip: %s -> %+v", b, cback)
	}
}
