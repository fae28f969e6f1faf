package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
)

// panicGate is NOR2 under another name whose bench constructor panics,
// standing in for a gate implementation bug hit while a job prepares
// its operating point.
type panicGate struct{ gate.Gate }

func (panicGate) Name() string { return "test-panic" }
func (panicGate) NewBench(nor.Params) (gate.Bench, error) {
	panic("bench constructor exploded")
}

var registerPanicGate sync.Once

// TestServePanickingJobFails: a job whose evaluation panics ends
// failed with the panic and its stack in the error, the server keeps
// answering /metrics and runs the next job to completion, and no
// goroutine outlives the jobs.
func TestServePanickingJobFails(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	registerPanicGate.Do(func() { gate.Register(panicGate{gate.NOR2}) })
	_, hs := newTestServer(t, Options{})
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	spec := JobSpec{Kind: session.KindGate, Gate: "test-panic", Stimuli: []sweep.Stimulus{testStimulus(2)}, Seeds: []int64{1}}
	st := waitTerminal(t, hs.URL, submit(t, hs.URL, spec, ""), 30*time.Second)
	if st.State != StateFailed {
		t.Fatalf("panicking job ended %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "bench constructor exploded") || !strings.Contains(st.Error, "goroutine") {
		t.Errorf("failed job error %q lacks the panic value or the stack", st.Error)
	}
	if m := metrics(t, hs.URL); m.Jobs[StateFailed] != 1 {
		t.Errorf("/metrics job counts %v, want one failed job", m.Jobs)
	}

	spec.Gate = "nor2"
	if st := waitTerminal(t, hs.URL, submit(t, hs.URL, spec, ""), 120*time.Second); st.State != StateDone {
		t.Fatalf("job after the panic ended %s: %s", st.State, st.Error)
	}

	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the jobs, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeStatusUnencodableResult: a done job whose result cannot be
// encoded as JSON answers 500 with an error body instead of 200 with an
// empty one. An undefined normalized ratio encodes (as null, see
// TestServeCircuitUndefinedRatios); a NaN deviation area, which no
// evaluation produces, still cannot.
func TestServeStatusUnencodableResult(t *testing.T) {
	srv, hs := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	j := srv.reg.Add(JobSpec{Kind: session.KindGate}, "client", nil, ctx, cancel)
	srv.reg.Start(j)
	srv.reg.Finish(j, StateDone, &session.Result{Kind: session.KindGate, Gate: []eval.RunResult{{
		Area:       map[string]float64{eval.ModelHM: math.NaN()},
		Normalized: map[string]float64{eval.ModelHM: math.NaN()},
	}}}, nil)

	resp, err := http.Get(hs.URL + "/v1/jobs/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body.Error, "NaN") {
		t.Errorf("status %d, error %q; want 500 naming the NaN", resp.StatusCode, body.Error)
	}
}
