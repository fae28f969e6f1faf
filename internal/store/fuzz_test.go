package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hybriddelay/internal/trace"
)

// canonicalTrace rewrites the boolean bytes of an encoded trace (the
// initial value and every event value) to the 0/1 that encodeTrace
// writes: the decoder reads any non-zero byte as true, so those are the
// only bytes a decoded trace may re-encode differently.
func canonicalTrace(p []byte) []byte {
	c := bytes.Clone(p)
	if len(c) > 0 && c[0] > 1 {
		c[0] = 1
	}
	// After the initial byte and the 4-byte event count, each event
	// is an 8-byte time and one value byte.
	for i := 13; i < len(c); i += 9 {
		if c[i] > 1 {
			c[i] = 1
		}
	}
	return c
}

// FuzzDecodeObject feeds arbitrary bytes to the on-disk object reader,
// both raw (the frame check itself) and CRC-framed with encodeObject
// (so the trace and trace-set payload decoders are reached). Every load
// must end in a clean decode or a counted Corrupt miss, never a panic,
// and a decoded trace must re-encode to the same payload.
func FuzzDecodeObject(f *testing.F) {
	var tr, set bytes.Buffer
	encodeTrace(&tr, testTrace())
	putU32(&set, 1)
	putU32(&set, 5)
	set.WriteString("out22")
	encodeTrace(&set, testTrace())
	traceKey, setKey := keyString(kindTrace, testKey(1)), keyString(kindSet, testKey(1))
	f.Add(tr.Bytes())
	f.Add(set.Bytes())
	f.Add(encodeObject(kindTrace, traceKey, tr.Bytes()))
	f.Add(encodeObject(kindSet, setKey, set.Bytes()))
	f.Add([]byte{})

	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	for _, key := range []string{traceKey, setKey} {
		if err := os.MkdirAll(filepath.Dir(s.path(key)), 0o755); err != nil {
			f.Fatal(err)
		}
	}
	// load writes data as key's object, runs one lookup and checks its
	// accounting: a hit, or a miss counted as Corrupt.
	load := func(t *testing.T, key string, data []byte, get func() (bool, error)) bool {
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		ok, err := get()
		after := s.Stats()
		if err != nil {
			t.Fatalf("load returned an error: %v", err)
		}
		hits, corrupt := after.Hits-before.Hits, after.Corrupt-before.Corrupt
		if ok && (hits != 1 || corrupt != 0) || !ok && (hits != 0 || corrupt != 1) {
			t.Fatalf("ok=%v counted %d hits, %d corrupt", ok, hits, corrupt)
		}
		return ok
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got trace.Trace
		loadTrace := func() (bool, error) {
			var ok bool
			var err error
			got, ok, err = s.Load(testKey(1))
			return ok, err
		}
		loadSet := func() (bool, error) {
			_, ok, err := s.LoadSet(testKey(1))
			return ok, err
		}
		load(t, traceKey, data, loadTrace)
		load(t, setKey, data, loadSet)
		load(t, setKey, encodeObject(kindSet, setKey, data), loadSet)
		if load(t, traceKey, encodeObject(kindTrace, traceKey, data), loadTrace) {
			var re bytes.Buffer
			encodeTrace(&re, got)
			if !bytes.Equal(re.Bytes(), canonicalTrace(data)) {
				t.Fatalf("decoded trace %+v re-encodes to %x, payload %x", got, re.Bytes(), data)
			}
		}
	})
}
