package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"hybriddelay/internal/serve"
)

// httpServer is an in-process serve.Server on a loopback listener plus
// the client the load generator drives it with: at most two
// connections, one per sender.
type httpServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	base string
	tr   *http.Transport
	hc   *http.Client
}

func startServer(e *env) (*httpServer, error) {
	srv, err := serve.NewServer(serve.Options{Session: e.sess, Store: e.st})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: srv, hs: &http.Server{Handler: srv}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	s.tr = &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers, DisableCompression: true}
	s.hc = &http.Client{Transport: s.tr, Timeout: 60 * time.Second}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the listener and the server and waits for both.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Shutdown(ctx)
	s.tr.CloseIdleConnections()
}

// run submits j.spec, follows its SSE stream to the "end" event and
// fetches the result. j.sched must be set by the caller when the job
// has a scheduled send time; run sets it to the send time otherwise.
// Spans go to rec when it is non-nil.
func (s *httpServer) run(ctx context.Context, j *job, rec *Recorder) {
	j.sent = time.Now()
	if j.sched.IsZero() {
		j.sched = j.sent
	}
	root := rec.Begin(spanJobHTTP, j.idx+1, -1)
	defer rec.End(root)
	body, err := json.Marshal(j.spec)
	if err != nil {
		j.err = err
		return
	}
	sp := rec.Begin(spanHTTPSubmit, 0, -1)
	var id string
	for {
		id, err = s.submit(ctx, body)
		if !errors.Is(err, errBusy) {
			break
		}
		j.retries++
		time.Sleep(time.Millisecond)
	}
	rec.End(sp)
	j.submitMs = float64(time.Since(j.sent)) / 1e6
	if err != nil {
		j.err = err
		return
	}
	sp = rec.Begin(spanHTTPEvents, 0, -1)
	state, err := s.awaitEnd(ctx, id)
	rec.End(sp)
	j.end = time.Now()
	if err != nil {
		j.err = err
		return
	}
	st, err := s.status(ctx, id)
	if err != nil {
		j.err = err
		return
	}
	if state != serve.StateDone || st.State != serve.StateDone || st.Result == nil || st.StartedAt == nil || st.EndedAt == nil {
		j.err = fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		return
	}
	j.res = st.Result
	j.queueMs = float64(st.StartedAt.Sub(st.CreatedAt)) / 1e6
	j.evalMs = float64(st.EndedAt.Sub(*st.StartedAt)) / 1e6
	j.overheadMs = float64(j.end.Sub(j.sent)-st.EndedAt.Sub(st.CreatedAt)) / 1e6
	if rec != nil {
		rec.Add(spanQueue, 0, root, st.CreatedAt, *st.StartedAt)
		rec.Add(spanJobServer(j), 0, root, *st.StartedAt, *st.EndedAt)
	}
}

// spanJobServer names the server-side evaluation interval of a job.
func spanJobServer(j *job) string { return "serve.evaluate." + string(j.kind) }

var errBusy = errors.New("admission backlog full")

func (s *httpServer) submit(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return "", errBusy
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, msg)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return "", err
	}
	return ack.ID, nil
}

// awaitEnd reads the job's SSE stream until its "end" event and
// returns the terminal state it carries.
func (s *httpServer) awaitEnd(ctx context.Context, id string) (serve.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Kind == "end" {
			// The server closes the stream after "end"; reading to EOF
			// lets the connection be reused.
			io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events: stream of %s closed before its end event", id)
}

func (s *httpServer) status(ctx context.Context, id string) (*serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
