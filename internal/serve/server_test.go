package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

// fastParams returns coarse-step bench parameters for quick analog
// test runs (the repository-wide test operating point).
func fastParams() nor.Params {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	return p
}

// newTestServer starts an httptest server around a fast-params session
// and returns both plus a cleanup-registered shutdown.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Session == nil {
		p := fastParams()
		opt.Session = session.New(session.Options{BaseParams: &p})
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := ctxTimeout(t, 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, hs
}

func testStimulus(transitions int) sweep.Stimulus {
	return sweep.Stimulus{Mode: gen.Local, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: transitions}
}

// submit posts a spec and returns the job id (fails the test on any
// non-202 answer).
func submit(t *testing.T, base string, spec JobSpec, key string) string {
	t.Helper()
	id, status, body := trySubmit(t, base, spec, key)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	return id
}

// trySubmit posts a spec and reports whatever came back.
func trySubmit(t *testing.T, base string, spec JobSpec, key string) (id string, status int, body string) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var ack struct {
		ID string `json:"id"`
	}
	json.Unmarshal(buf.Bytes(), &ack)
	return ack.ID, resp.StatusCode, buf.String()
}

// getStatus fetches GET /v1/jobs/{id}.
func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metrics scrapes GET /metrics.
func metrics(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return m
}

// TestServeGateJobWarmRepeat pins the acceptance criterion: a warm
// server answers a repeated gate job without a single new transient
// solve — the golden cache serves the traces, the parametrization
// cache serves the operating point, and the /metrics solver counters
// stand still.
func TestServeGateJobWarmRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	_, hs := newTestServer(t, Options{})
	spec := JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(2)}, Seeds: []int64{1, 2}}

	id1 := submit(t, hs.URL, spec, "")
	st1 := waitTerminal(t, hs.URL, id1, 120*time.Second)
	if st1.State != StateDone {
		t.Fatalf("cold job ended %s: %s", st1.State, st1.Error)
	}
	cold := metrics(t, hs.URL)
	if cold.Session.Solver.Steps == 0 {
		t.Fatalf("cold run reports no solver steps: %+v", cold.Session.Solver)
	}

	id2 := submit(t, hs.URL, spec, "")
	st2 := waitTerminal(t, hs.URL, id2, 120*time.Second)
	if st2.State != StateDone {
		t.Fatalf("warm job ended %s: %s", st2.State, st2.Error)
	}
	warm := metrics(t, hs.URL)
	if warm.Session.Solver != cold.Session.Solver {
		t.Errorf("warm repeat ran new transient solves:\ncold %+v\nwarm %+v", cold.Session.Solver, warm.Session.Solver)
	}
	if warm.Session.Golden.Hits <= cold.Session.Golden.Hits {
		t.Errorf("warm repeat did not hit the golden cache: cold hits %d, warm hits %d",
			cold.Session.Golden.Hits, warm.Session.Golden.Hits)
	}

	// The two runs' payloads are byte-identical under the canonical
	// projection.
	j1, err := CanonicalResultJSON(st1.Result)
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	j2, err := CanonicalResultJSON(st2.Result)
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("warm repeat changed the result payload")
	}
}

// TestServeCircuitUndefinedRatios: an rca4 circuit job whose short
// stimulus leaves some nets still (zero inertial baseline, so undefined
// normalized ratios) finishes and reads back as done, with each
// undefined ratio encoded as null and decoded back to NaN.
func TestServeCircuitUndefinedRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients; skipped in -short mode")
	}
	_, hs := newTestServer(t, Options{})
	id := submit(t, hs.URL, JobSpec{Kind: session.KindCircuit, Circuit: "rca4",
		Stimuli: []sweep.Stimulus{testStimulus(4)}, Seeds: []int64{1}}, "")
	var (
		st  JobStatus
		raw struct {
			Result struct {
				Circuit struct {
					Normalized      map[string]map[string]*float64
					TotalNormalized map[string]*float64
				}
			} `json:"result"`
		}
	)
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body.String())
		}
		if err := json.Unmarshal(body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			if err := json.Unmarshal(body.Bytes(), &raw); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
	}
	if st.State != StateDone || st.Result == nil || st.Result.Circuit == nil {
		t.Fatalf("job ended %s (%s) without a circuit result", st.State, st.Error)
	}
	nulls := 0
	for net, ratios := range raw.Result.Circuit.Normalized {
		for model, r := range ratios {
			got := st.Result.Circuit.Normalized[net][model]
			if r == nil {
				nulls++
				if !math.IsNaN(got) {
					t.Errorf("%s/%s: null decoded as %g, want NaN", net, model, got)
				}
			} else if *r != got {
				t.Errorf("%s/%s: %g decoded as %g", net, model, *r, got)
			}
		}
	}
	if nulls == 0 {
		t.Fatalf("no undefined ratio in the result; the stimulus no longer leaves a net still: %+v", st.Result.Circuit.GoldenEv)
	}
	if len(raw.Result.Circuit.TotalNormalized) == 0 {
		t.Fatal("no total ratios encoded")
	}
}

// TestServeSpecValidation exercises the 400 surface.
func TestServeSpecValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("httptest server spins a session in -short mode")
	}
	_, hs := newTestServer(t, Options{})
	cases := []JobSpec{
		{},                                  // no kind
		{Kind: "unknown"},                   // bad kind
		{Kind: session.KindGate},            // no stimuli
		{Kind: session.KindGate, Gate: "x"}, // unknown gate
		{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{{Mode: gen.Local, Mu: -1}}},
		{Kind: session.KindCircuit, Stimuli: []sweep.Stimulus{testStimulus(1)}},                   // no circuit
		{Kind: session.KindCircuit, Circuit: "bogus", Stimuli: []sweep.Stimulus{testStimulus(1)}}, // unknown builtin
		{Kind: session.KindSweep}, // no spec
		{Kind: session.KindSweep, Gate: "nor2", Sweep: &sweep.Spec{Stimuli: []sweep.Stimulus{testStimulus(1)}}}, // stray field
	}
	for i, spec := range cases {
		if _, status, body := trySubmit(t, hs.URL, spec, ""); status != http.StatusBadRequest {
			t.Errorf("case %d: status %d (want 400): %s", i, status, body)
		}
	}
	// Unknown job id surfaces 404 on every per-job endpoint.
	for _, ep := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(hs.URL + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d (want 404)", ep, resp.StatusCode)
		}
	}
}

// TestServeRejectsHugeSweepGrid: a small sweep body whose axes expand
// past sweep.MaxScenarios (300 x 300 x 1) is answered 400 at submit,
// without the server allocating the scenario list.
func TestServeRejectsHugeSweepGrid(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	grid := sweep.Spec{Stimuli: []sweep.Stimulus{testStimulus(1)}}
	for i := 0; i < 300; i++ {
		grid.VDDScale = append(grid.VDDScale, 1+float64(i)/1000)
		grid.LoadScale = append(grid.LoadScale, 1+float64(i)/1000)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, status, body := trySubmit(t, hs.URL, JobSpec{Kind: session.KindSweep, Sweep: &grid}, "")
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest || !strings.Contains(body, "grid expands to 90000 scenarios, exceeds 65536") {
		t.Fatalf("status %d (want 400): %s", status, body)
	}
	if grew, list := after.TotalAlloc-before.TotalAlloc, 90000*uint64(unsafe.Sizeof(sweep.Scenario{})); grew >= list {
		t.Errorf("submit allocated %d bytes before rejecting (the scenario list is %d)", grew, list)
	}
}

// TestServeRejectsHugeTransitions: a gate job asking for more than
// gen.MaxTransitions transitions per stimulus is answered 400 at submit,
// before any trace is generated.
func TestServeRejectsHugeTransitions(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(2_000_000_000)}}
	// Fail before submitting if the bound is gone: an admitted job would
	// try to generate the whole stimulus and exhaust memory.
	if _, err := spec.Job(); err == nil {
		t.Fatal("Job accepted 2e9 transitions")
	}
	_, status, body := trySubmit(t, hs.URL, spec, "")
	if status != http.StatusBadRequest || !strings.Contains(body, "2000000000 transitions exceed 65536") {
		t.Fatalf("status %d (want 400): %s", status, body)
	}
}

// TestServeSSEStream verifies the event stream: replayed and live
// events arrive with strictly increasing sequence numbers, progress
// events report monotonically increasing per-phase completion, and the
// stream terminates with the "end" marker.
func TestServeSSEStream(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	_, hs := newTestServer(t, Options{})
	spec := JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(2), func() sweep.Stimulus {
		s := testStimulus(2)
		s.Mode = gen.Global
		return s
	}()}, Seeds: []int64{1, 2}}
	id := submit(t, hs.URL, spec, "")

	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var (
		events    []Event
		lastByPh  = map[string]int{}
		sawEnd    bool
		lastSeq   int
		decodeErr error
	)
	for line := range sseDataLines(t, resp) {
		var e Event
		if decodeErr = json.Unmarshal([]byte(line), &e); decodeErr != nil {
			t.Fatalf("bad event %q: %v", line, decodeErr)
		}
		events = append(events, e)
		if e.Seq != lastSeq+1 {
			t.Fatalf("sequence jumped from %d to %d", lastSeq, e.Seq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case "progress":
			if e.Completed != lastByPh[e.Phase]+1 {
				t.Errorf("phase %s: completed jumped from %d to %d", e.Phase, lastByPh[e.Phase], e.Completed)
			}
			lastByPh[e.Phase] = e.Completed
		case "end":
			sawEnd = true
			if e.State != StateDone {
				t.Errorf("end state %s", e.State)
			}
		}
	}
	if !sawEnd {
		t.Fatalf("stream ended without terminal event (%d events)", len(events))
	}
	if lastByPh[session.PhaseEval] != 4 {
		t.Errorf("eval units reported %d, want 4", lastByPh[session.PhaseEval])
	}

	// Resumption: ?after=<seq of all but last two> replays only the tail.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", hs.URL, id, lastSeq-2))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer resp2.Body.Close()
	var tail []Event
	for line := range sseDataLines(t, resp2) {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad resumed event: %v", err)
		}
		tail = append(tail, e)
	}
	if len(tail) != 2 || tail[0].Seq != lastSeq-1 || tail[1].Kind != "end" {
		t.Errorf("resume replayed %d events (want the 2-event tail): %+v", len(tail), tail)
	}
}

// sseDataLines yields the data payload of each SSE frame until the
// stream closes.
func sseDataLines(t *testing.T, resp *http.Response) func(func(string) bool) {
	t.Helper()
	return func(yield func(string) bool) {
		buf := make([]byte, 0, 4096)
		chunk := make([]byte, 1024)
		for {
			n, err := resp.Body.Read(chunk)
			buf = append(buf, chunk[:n]...)
			for {
				idx := bytes.Index(buf, []byte("\n\n"))
				if idx < 0 {
					break
				}
				frame := string(buf[:idx])
				buf = buf[idx+2:]
				for _, l := range strings.Split(frame, "\n") {
					if data, ok := strings.CutPrefix(l, "data: "); ok {
						if !yield(data) {
							return
						}
					}
				}
			}
			if err != nil {
				return
			}
		}
	}
}

// TestServeAdmissionQueue drives more long jobs than the gate admits
// at once: the second submission backlogs, the third bounces with 429,
// everything admitted still completes (backlog dispatch), and the
// accounting shows up in /metrics.
func TestServeAdmissionQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	// Serial session + a 64-unit sweep make each job long enough that
	// the whole submission sequence lands while the first is running.
	p := fastParams()
	sess := session.New(session.Options{BaseParams: &p, Workers: 1})
	_, hs := newTestServer(t, Options{Session: sess, MaxActive: 1, PerClient: 1, Backlog: 1})
	stims := make([]sweep.Stimulus, 0, 4)
	for _, tr := range []int{6, 7, 8, 9} {
		stims = append(stims, testStimulus(tr))
	}
	spec := JobSpec{Kind: session.KindSweep, Sweep: &sweep.Spec{
		Gates:     []string{"nor2"},
		Stimuli:   stims,
		SeedCount: 16,
	}}

	idA, statusA, bodyA := trySubmit(t, hs.URL, spec, "tenant-a")
	if statusA != http.StatusAccepted || strings.Contains(bodyA, `"queued":true`) {
		t.Fatalf("first submit: status %d body %s", statusA, bodyA)
	}
	idB, statusB, bodyB := trySubmit(t, hs.URL, spec, "tenant-b")
	if statusB != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", statusB, bodyB)
	}
	if !strings.Contains(bodyB, `"queued":true`) {
		t.Errorf("second submit was not backlogged under MaxActive=1: %s", bodyB)
	}
	if _, statusC, bodyC := trySubmit(t, hs.URL, spec, "tenant-c"); statusC != http.StatusTooManyRequests {
		t.Errorf("third submit: status %d (want 429): %s", statusC, bodyC)
	}

	for _, id := range []string{idA, idB} {
		if st := waitTerminal(t, hs.URL, id, 300*time.Second); st.State != StateDone {
			t.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	m := metrics(t, hs.URL)
	if m.Admission.Admitted != 2 {
		t.Errorf("admitted %d, want 2", m.Admission.Admitted)
	}
	if m.Admission.Rejected == 0 {
		t.Errorf("no rejection recorded: %+v", m.Admission)
	}
	if m.Jobs[StateDone] != 2 {
		t.Errorf("job table: %v, want 2 done", m.Jobs)
	}
}

// TestServeShutdownRefusesAndFlushes verifies the drain path: after
// Shutdown the server answers 503 and the write-behind store has
// landed every golden trace (Session.Close flushed it).
func TestServeShutdownRefusesAndFlushes(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	st := openTestStore(t)
	p := fastParams()
	sess := session.New(session.Options{BaseParams: &p, Store: st})
	srv, err := NewServer(Options{Session: sess, Store: st})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	spec := JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(2)}, Seeds: []int64{1}}
	id := submit(t, hs.URL, spec, "")
	if st2 := waitTerminal(t, hs.URL, id, 120*time.Second); st2.State != StateDone {
		t.Fatalf("job ended %s: %s", st2.State, st2.Error)
	}

	ctx, cancel := ctxTimeout(t, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if w := st.Stats().Writes; w == 0 {
		t.Errorf("no store writes landed after Shutdown; stats %+v", st.Stats())
	}
	if _, status, _ := trySubmit(t, hs.URL, spec, ""); status != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: status %d, want 503", status)
	}
}
