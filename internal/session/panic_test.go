package session

import (
	"context"
	"strings"
	"testing"
	"time"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/idm"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
)

// panicBench is a NOR2 bench whose golden run panics, standing in for
// a simulator bug hit mid-transient.
type panicBench struct{ p nor.Params }

func (b panicBench) Gate() gate.Gate    { return gate.NOR2 }
func (b panicBench) Params() nor.Params { return b.p }
func (b panicBench) Measure() (gate.Measurement, error) {
	panic("panicBench measures nothing")
}
func (b panicBench) Golden([]trace.Trace, float64) (trace.Trace, error) {
	panic("golden bench exploded")
}

// tableIModels builds a NOR2 model set from the paper's Table I
// parameters, without touching an analog bench.
func tableIModels(t *testing.T) gate.Models {
	t.Helper()
	hm := hybrid.TableI()
	hm0 := hm
	hm0.DMin = 0
	arcs, err := inertial.NORArcsFromSIS(40e-12, 38e-12, 53e-12, 56e-12)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := idm.ExpFromSIS(54.5e-12, 39e-12, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	return gate.Models{
		Gate: gate.NOR2, Inertial: arcs.Arcs(), Exp: exp,
		HM: gate.NOR2Model{P: hm}, HMNoDMin: gate.NOR2Model{P: hm0}, Supply: hm.Supply,
	}
}

// TestSessionUnitPanicFailsJob: a unit whose golden bench panics fails
// its own job with an error naming the panic instead of crashing the
// process, and an identical second job on the same session — whose
// golden lookup hits the same cache key the panicking leader held —
// returns too instead of waiting on a dead cache entry.
func TestSessionUnitPanicFailsJob(t *testing.T) {
	s := New(Options{Workers: 2})
	m := tableIModels(t)
	job := GateJob{
		Bench: panicBench{p: fastParams()}, Models: &m,
		Configs: []gen.Config{testConfig(2, 4)}, Seeds: []int64{1, 2, 3},
	}
	for run := 1; run <= 2; run++ {
		errc := make(chan error, 1)
		go func() {
			_, err := s.Evaluate(context.Background(), job)
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "golden bench exploded") {
				t.Fatalf("run %d: job returned %v, want an error naming the panic", run, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d: job hangs after a panicking unit", run)
		}
	}
}
