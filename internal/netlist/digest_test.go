package netlist

// Bit pin for the sparse-fast solver path. Sparse-fast is only
// numerically equivalent to dense-exact, so the solver accuracy gate
// cannot see a change in its bits; this digest can. It hashes every
// recorded sample of composed c17 and rca2 transients, with the solver
// counters alongside, against testdata/sparse_fast.digest. Regenerate
// (only when a sparse-fast bit change is intended, and say so) with:
//
//	go test ./internal/netlist -run TestSparseFastDigest -update

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/spice"
)

var updateDigest = flag.Bool("update", false, "regenerate testdata/sparse_fast.digest")

// sparseFastDigest runs one composed sparse-fast transient of nl on a
// fresh bench, recording every node, and renders the sample hash and
// the solver counters as one line.
func sparseFastDigest(t *testing.T, nl *Netlist, seed int64) string {
	t.Helper()
	p := fastParams()
	p.Solver = spice.SparseFast
	b, err := NewBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	inputs, until := tracesFor(t, len(nl.Inputs), 24, seed)
	sigs, bps, err := gate.InputSignals(p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(sigs, until, b.init, bps, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, tt := range res.Times {
		put(tt)
	}
	ids := res.NodeIDs()
	for _, id := range ids {
		w, err := res.Waveform(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range w.Values {
			put(v)
		}
	}
	st := b.SolverStats()
	return fmt.Sprintf("%s seed=%d nodes=%d samples=%d sha256=%x steps=%d rejected=%d iterations=%d factorizations=%d sparse_factorizations=%d fallbacks=%d linear_reuses=%d",
		nl.Name, seed, len(ids), len(res.Times), h.Sum(nil), st.Steps, st.Rejected, st.Iterations,
		st.Factorizations, st.SparseFactorizations, st.SparseFallbacks, st.LinearReuses)
}

// TestSparseFastDigest pins sparse-fast output bit for bit on c17 and
// rca2 (two stimuli each).
func TestSparseFastDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients; skipped in -short mode")
	}
	rca2, err := RippleCarryAdder("rca2", 2)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, nl := range []*Netlist{C17("c17"), rca2} {
		for _, seed := range []int64{1, 2} {
			lines = append(lines, sparseFastDigest(t, nl, seed))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "sparse_fast.digest")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("sparse-fast digest changed:\ngot:\n%swant:\n%s", got, want)
	}
}
