package netlist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseNetlist feeds arbitrary bytes to the user-facing netlist
// decoder (the `hybridlab circuit -netlist` file and the serve inline
// netlist). Whatever Parse accepts must validate, order and key
// without panicking, and must round-trip through WriteJSON → Parse to
// the same content key.
func FuzzParseNetlist(f *testing.F) {
	files, err := filepath.Glob("../../examples/netlists/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed netlists: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"inputs":["a"],"instances":[{"name":"g","gate":"","inputs":["a","a"],"output":"a"}]}`))
	f.Add([]byte(`{"inputs":["a","b"],"instances":[{"name":"x","gate":"nor2","inputs":["a","y"],"output":"x"},{"name":"y","gate":"nor2","inputs":["x","b"],"output":"y"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		nl, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("parsed netlist fails validation: %v", err)
		}
		order, err := nl.Order()
		if err != nil || len(order) != len(nl.Instances) {
			t.Fatalf("parsed netlist has no full order: %v (%d of %d)", err, len(order), len(nl.Instances))
		}
		key := nl.ContentKey()
		var buf bytes.Buffer
		if err := nl.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		again, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if got := again.ContentKey(); got != key {
			t.Fatalf("round trip changed the content key:\n%s\n%s", key, got)
		}
	})
}
