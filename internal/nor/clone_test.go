package nor_test

import (
	"math"
	"sync"
	"testing"

	"hybriddelay/internal/gate"
)

// measurementBits flattens a measurement into its float bit patterns.
func measurementBits(m gate.Measurement) []uint64 {
	var out []uint64
	for _, v := range m.Pair.AsSlice() {
		out = append(out, math.Float64bits(v))
	}
	for _, a := range m.Arcs {
		out = append(out, math.Float64bits(a.Fall), math.Float64bits(a.Rise))
	}
	return out
}

// TestBenchClone: clones share parameters but no simulator state — for
// every registered gate, Measure on concurrently running clones must
// agree bit for bit with the original's (run under -race in CI).
func TestBenchClone(t *testing.T) {
	for _, name := range gate.Names() {
		g, err := gate.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		b := newGateBench(t, g, fastParams())
		m, err := b.Measure()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := measurementBits(m)

		const clones = 3
		got := make([][]uint64, clones)
		errs := make([]error, clones)
		var wg sync.WaitGroup
		for i := 0; i < clones; i++ {
			c, err := b.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if c == b || c.Circuit() == b.Circuit() {
				t.Fatalf("%s: clone shares the circuit with the original", name)
			}
			if c.Params() != b.Params() || c.Gate() != b.Gate() {
				t.Fatalf("%s: clone differs from the original in gate or params", name)
			}
			wg.Add(1)
			go func(i int, c *gate.AnalogBench) {
				defer wg.Done()
				m, err := c.Measure()
				got[i], errs[i] = measurementBits(m), err
			}(i, c)
		}
		wg.Wait()
		for i := 0; i < clones; i++ {
			if errs[i] != nil {
				t.Fatalf("%s: clone %d: %v", name, i, errs[i])
			}
			if len(got[i]) != len(want) {
				t.Fatalf("%s: clone %d measured %d values, want %d", name, i, len(got[i]), len(want))
			}
			for k := range want {
				if got[i][k] != want[k] {
					t.Errorf("%s: clone %d value %d = %x, original %x", name, i, k, got[i][k], want[k])
				}
			}
		}
	}
}
