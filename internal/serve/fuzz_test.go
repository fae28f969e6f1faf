package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec feeds arbitrary request bodies through the submit
// path's decoding and validation — exactly what handleSubmit does
// before admission — without running any analog work. Nothing an
// untrusted client sends may panic the server here.
func FuzzJobSpec(f *testing.F) {
	// The README's curl examples, one per job kind.
	f.Add([]byte(`{"kind": "gate", "gate": "nor2",
  "stimuli": [{"mode": "LOCAL", "mu": 2e-10, "sigma": 1e-10, "transitions": 100}],
  "seeds": [1, 2]}`))
	f.Add([]byte(`{"kind": "circuit", "circuit": "nor-invchain",
  "stimuli": [{"mode": "LOCAL", "mu": 2e-10, "sigma": 1e-10, "transitions": 100}],
  "seeds": [1]}`))
	f.Add([]byte(`{"kind": "sweep", "sweep": {
    "gates": ["nor2", "nand2"],
    "stimuli": [{"mode": "GLOBAL", "mu": 2e-10, "sigma": 1e-10, "transitions": 100}],
    "seed_count": 3}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if job, err := spec.Job(); err == nil && job == nil {
			t.Fatal("Job accepted the spec but returned no job")
		}
	})
}
