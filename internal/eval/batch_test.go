package eval

import (
	"context"
	"reflect"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

// TestBatchSize: the engine claims batches of ceil(n / (2·workers))
// units (at least one), and within a batch takes one lease per run of
// consecutive units sharing a source block — observed through the lease
// count, which does not depend on scheduling.
func TestBatchSize(t *testing.T) {
	cases := []struct {
		n, workers, perSource int
		leases                int64
	}{
		{100, 4, 0, 8}, // batches of 13: ~two claims per worker
		{8, 4, 0, 8},   // batches of 1
		{1, 8, 0, 1},   // never below one unit
		{16, 1, 0, 2},  // serial still batches for lease amortization
		{12, 1, 5, 4},  // batches 0-5 and 6-11 cross blocks 0-4, 5-9, 10-11
	}
	for _, c := range cases {
		src := &leaseCounter{}
		err := RunUnits(context.Background(), Units[GoldenSource]{
			N: c.n, Workers: c.workers, PerSource: c.perSource,
			Source: func(int) GoldenSource { return src },
			Run:    func(context.Context, GoldenSource, int) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if l, r := src.leases.Load(), src.releases.Load(); l != c.leases || r != l {
			t.Errorf("n=%d workers=%d perSource=%d: %d leases / %d releases, want %d of each",
				c.n, c.workers, c.perSource, l, r, c.leases)
		}
	}
}

// TestLeaseDelegation: leases pin one bench while keeping the
// computation identical, and the cache stays in front of a leased
// source so batched units still hit it.
func TestLeaseDelegation(t *testing.T) {
	inner := &countingSource{}
	cache := NewGoldenCache()
	src := CachedSource{Gate: "nor2", Bench: nor.DefaultParams(), Cache: cache, Src: inner}

	leased, release, err := src.Lease()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	req := GoldenRequest{Config: testConfig(8), Seed: 1, Until: 1e-9}
	if _, err := leased.Golden(req); err != nil {
		t.Fatal(err)
	}
	if _, err := leased.Golden(req); err != nil {
		t.Fatal(err)
	}
	if inner.count() != 1 {
		t.Errorf("inner computed %d times under a lease, want 1 (cache in front)", inner.count())
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestBenchSourceLeaseBitIdentical: a leased pooled bench returns the
// same trace as the shared path, and release returns the bench for the
// next lease instead of leaking pool slots.
func TestBenchSourceLeaseBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	b := evalBench(t)
	src := NewBenchSource(b)
	cfg := testConfig(6)
	inputs, err := gen.Traces(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := GoldenRequest{
		Config: cfg, Seed: 3, Inputs: inputs,
		Until: gen.Horizon(inputs, 600*waveform.Pico),
	}
	want, err := src.Golden(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		leased, release, err := src.Lease()
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		got, err := leased.Golden(req)
		release()
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lease %d: trace differs from shared path", i)
		}
	}
}

// TestEvaluateParallelBatchBitIdentical: the acceptance property of
// batched, leased claiming — every worker count from 1 to 4 (so batch
// sizes from 3 down to 1) produces Area maps bit-identical to the
// serial reference (run under -race in CI).
func TestEvaluateParallelBatchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	b := evalBench(t)
	m := cheapModels(t)
	cfg := testConfig(24)
	seeds := []int64{1, 2, 3, 4, 5}

	serial, err := Evaluate(b, m, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 4; workers++ {
		res, err := runGate(NewBenchSource(b), m, cfg, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.GoldenEv != serial.GoldenEv {
			t.Errorf("workers=%d: golden events %d != serial %d", workers, res.GoldenEv, serial.GoldenEv)
		}
		for _, name := range ModelNames {
			if res.Area[name] != serial.Area[name] {
				t.Errorf("workers=%d: Area[%s] = %g != serial %g", workers, name, res.Area[name], serial.Area[name])
			}
			if res.Normalized[name] != serial.Normalized[name] {
				t.Errorf("workers=%d: Normalized[%s] = %g != serial %g",
					workers, name, res.Normalized[name], serial.Normalized[name])
			}
		}
	}
}

// TestEvaluateCircuitBatchBitIdentical: engine-run circuit evaluation
// over the c17 benchmark netlist matches the serial
// EvaluateCircuitSeed + merge reference exactly on every recorded net,
// for 1 to 4 workers.
func TestEvaluateCircuitBatchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	nl := netlist.C17("c17")
	m := cheapModels(t)
	nand, ok := gate.Lookup("nand2")
	if !ok {
		t.Fatal("nand2 not registered")
	}
	m.Gate = nand // the Table-I delay params stand in; only determinism matters here
	ms := netlist.ModelSet{"nand2": m}
	p := evalBench(t).P
	cfg := testConfig(8)
	cfg.Inputs = len(nl.Inputs)
	seeds := []int64{1, 2, 3}

	bench, err := netlist.NewBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	var parts []CircuitSeedResult
	for _, seed := range seeds {
		part, err := EvaluateCircuitSeed(NewCircuitBenchSource(bench), nl, ms, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	serial := MergeCircuitSeedResults(nl, cfg, parts)
	for workers := 1; workers <= 4; workers++ {
		res, err := evaluateCircuit(t, nl, p, ms, cfg, seeds, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range serial.Nets {
			if res.GoldenEv[net] != serial.GoldenEv[net] {
				t.Errorf("workers=%d: golden events[%s] = %d != %d",
					workers, net, res.GoldenEv[net], serial.GoldenEv[net])
			}
			for _, model := range ModelNames {
				if res.Area[net][model] != serial.Area[net][model] {
					t.Errorf("workers=%d: Area[%s][%s] = %g != %g",
						workers, net, model, res.Area[net][model], serial.Area[net][model])
				}
			}
		}
		for _, model := range ModelNames {
			if res.TotalNormalized[model] != serial.TotalNormalized[model] {
				t.Errorf("workers=%d: TotalNormalized[%s] = %g != %g",
					workers, model, res.TotalNormalized[model], serial.TotalNormalized[model])
			}
		}
	}
}
