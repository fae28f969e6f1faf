// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the program's public entry points
// (session.Session.Evaluate, serve.Server over loopback HTTP), checks
// every result against a replay on a fresh reference session, and
// prints one JSON result line last on stdout:
//
//	bash perfbench/run.sh --workload fig7-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer split of a traced run instead.
// See BENCHMARK.json at the repository root for the metric list.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string
}

// setupChildEnv marks a process started by spawnSetup; a test binary
// checks it to run as the benchmark instead of as tests.
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: fig7-cold, circuit-sparse or serve-warm")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's jobs are generated from")
	fs.IntVar(&seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the metric run")
	fs.StringVar(&o.scratch, "scratch", ".bench_build/runs", "directory for stores and span files")
	setupOnly := fs.Int("setup-only", -1, "time set-up number k alone, print its seconds and speed scale as JSON and exit (the metric run starts one process per set-up)")
	sizesJSON := fs.String("sizes", "", "workload sizes as JSON (set by the metric run for its set-up processes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.seconds, o.trace = float64(seconds), trace == 1
	sz := defaultSizes
	if *sizesJSON != "" {
		if err := json.Unmarshal([]byte(*sizesJSON), &sz); err != nil {
			fmt.Fprintln(stderr, "perfbench: -sizes:", err)
			return 2
		}
	}
	if *setupOnly >= 0 {
		s, err := timeSetup(context.Background(), o, sz, *setupOnly)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(s)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	rep, err := benchmark(context.Background(), o, sz)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep.info); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(rep.result); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report is a finished run: the result line and the descriptive line
// printed before it.
type report struct {
	info   map[string]any
	result result
	spans  []Span
}

// benchmark runs one workload: set-up, the measured window, then
// verification outside the window. A metric run times sz.Setups
// set-ups, each the first of its process, so every one pays what a
// cold process pays (operating-point preparation, the process-wide
// symbolic-factorization cache). Set-ups 1 and up run in child
// processes; set-up 0 runs here and the window runs on it.
func benchmark(ctx context.Context, o options, sz sizes) (*report, error) {
	wl, err := newWorkload(o.workload, o.seed, sz)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var (
		rec    *Recorder
		setups []setupTime
	)
	if o.trace {
		rec = NewRecorder()
	} else {
		for k := 1; k < sz.Setups; k++ {
			s, err := spawnSetup(ctx, o, sz, k)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
	}
	e, s, err := timedSetup(ctx, wl, dir, rec, 0)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s)
	defer e.close()

	m := newMeter(e, o.trace)
	tr := &tracer{rec: rec, sess: e.sess, params: e.params, workers: e.workers}
	window := time.Duration(o.seconds * float64(time.Second))
	var jobs []*job
	if wl.closed() {
		jobs = closedLoop(ctx, wl, e, tr, m.probe, time.Now().Add(window), o.trace)
	} else {
		jobs = openLoop(ctx, wl, e, tr, m.probe, window, sz.ServeInterval, o.trace)
	}
	runFile := func(kind, ext string) string {
		return filepath.Join(o.scratch, fmt.Sprintf("%s-%s-%d.%s", kind, o.workload, o.seed, ext))
	}
	if err := m.stop(ctx, e, runFile("cpu", "pprof")); err != nil {
		return nil, err
	}

	mismatches, err := verify(ctx, e, jobs)
	if err != nil {
		return nil, err
	}
	rep := &report{spans: rec.Spans()}
	rep.result, rep.info = m.summarize(o, e, jobs, setups, rep.spans)
	rep.info["verified_jobs"] = len(jobs)
	rep.info["mismatched_jobs"] = mismatches
	if o.trace {
		path := runFile("spans", "json")
		if err := writeSpans(path, rep.spans); err != nil {
			return nil, err
		}
		rep.info["spans_file"] = path
	}
	return rep, nil
}

func writeSpans(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// openSetup builds set-up k and drains the store's write-behind queue,
// so the window starts with nothing pending.
func openSetup(ctx context.Context, wl workload, dir string, rec *Recorder, k int) (*env, error) {
	e, err := wl.setup(ctx, dir, rec, k)
	if err != nil {
		return nil, err
	}
	if err := e.sess.Close(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// setupTime is one set-up's measured seconds and the host's speed
// scale around it (see speed.go).
type setupTime struct {
	Seconds float64 `json:"seconds"`
	Scale   float64 `json:"scale"`
}

// timedSetup builds set-up k and times it. The reference kernel is
// sampled, untimed, right before and right after it.
func timedSetup(ctx context.Context, wl workload, dir string, rec *Recorder, k int) (*env, setupTime, error) {
	before := calibrate(setupSamples)
	t0 := time.Now()
	e, err := openSetup(ctx, wl, dir, rec, k)
	if err != nil {
		return nil, setupTime{}, err
	}
	secs := time.Since(t0).Seconds()
	after := calibrate(setupSamples)
	return e, setupTime{Seconds: secs, Scale: newSpeed(append(before, after...)).scale()}, nil
}

// timeSetup builds set-up k in this process and times it.
func timeSetup(ctx context.Context, o options, sz sizes, k int) (setupTime, error) {
	wl, err := newWorkload(o.workload, o.seed, sz)
	if err != nil {
		return setupTime{}, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return setupTime{}, err
	}
	dir, err := os.MkdirTemp(o.scratch, o.workload+"-setup-")
	if err != nil {
		return setupTime{}, err
	}
	defer os.RemoveAll(dir)
	e, s, err := timedSetup(ctx, wl, dir, nil, k)
	if err != nil {
		return setupTime{}, err
	}
	e.close()
	return s, nil
}

// spawnSetup times set-up k in a fresh process of this executable and
// waits for it to exit.
func spawnSetup(ctx context.Context, o options, sz sizes, k int) (setupTime, error) {
	var s setupTime
	exe, err := os.Executable()
	if err != nil {
		return s, err
	}
	szJSON, err := json.Marshal(sz)
	if err != nil {
		return s, err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-scratch", o.scratch, "-sizes", string(szJSON), "-setup-only", strconv.Itoa(k))
	cmd.Env = append(os.Environ(), setupChildEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return s, fmt.Errorf("set-up %d: %v: %s", k, err, bytes.TrimSpace(stderr.Bytes()))
	}
	err = json.Unmarshal(out, &s)
	return s, err
}
