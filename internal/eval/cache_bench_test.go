package eval

import (
	"testing"

	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
)

// BenchmarkGoldenCacheHit times the warm-key lookup every repeated
// evaluation unit takes: GetOrComputeTracked on a key already in the
// cache, among other resident keys so the LRU bookkeeping is real.
func BenchmarkGoldenCacheHit(b *testing.B) {
	c := NewGoldenCache()
	c.SetLimit(1 << 20)
	tr := trace.New(false, []trace.Event{{Time: 1e-12, Value: true}, {Time: 2e-12, Value: false}})
	compute := func() (trace.Trace, error) { return tr, nil }
	key := func(seed int64) GoldenKey {
		return GoldenKey{Gate: "nor2", Bench: nor.DefaultParams(), Seed: seed}
	}
	for seed := int64(0); seed < 64; seed++ {
		if _, _, err := c.GetOrComputeTracked(key(seed), compute); err != nil {
			b.Fatal(err)
		}
	}
	warm := key(7)
	b.ReportAllocs()
	for b.Loop() {
		if _, hit, err := c.GetOrComputeTracked(warm, compute); err != nil || !hit {
			b.Fatalf("warm lookup: hit=%v err=%v", hit, err)
		}
	}
}
