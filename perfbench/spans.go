package main

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one timed call recorded by the traced run: its layer name,
// its interval (nanoseconds since the recorder was created), the span
// it nests in (0 for none), the job it belongs to (0 for none) and the
// goroutine it ran on.
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	G      uint64 `json:"-"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory. Nesting follows each goroutine's
// stack of open spans, so a call wrapped deep inside the program (a
// store load under a golden-cache miss) lands under the span that was
// open on the same goroutine. A nil *Recorder records nothing.
type Recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	stacks map[uint64][]int // goroutine -> open span IDs, innermost last
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), stacks: map[uint64][]int{}}
}

// goid parses the current goroutine's ID from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// Begin opens a span on the calling goroutine. A positive parent
// nests it explicitly (a unit started on a pool worker under its job);
// otherwise it nests under the goroutine's innermost open span and
// inherits that span's job. It returns the span ID for End.
func (r *Recorder) Begin(name string, job, parent int) int {
	if r == nil {
		return 0
	}
	return r.BeginOn(goid(), name, job, parent)
}

// BeginOn is Begin on goroutine g, which must be the caller's (from
// goid). Reading the goroutine ID costs a stack walk, so hot loops read
// it once and open their spans with BeginOn.
func (r *Recorder) BeginOn(g uint64, name string, job, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	stack := r.stacks[g]
	if parent <= 0 {
		parent = 0
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
	}
	if job == 0 && parent > 0 {
		job = r.spans[parent-1].Job
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Name: name, Start: now, End: -1, Parent: parent, Job: job, G: g})
	r.stacks[g] = append(stack, id)
	return id
}

// End closes a span opened by Begin on the same goroutine.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	stack := r.stacks[s.G]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == id {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(r.stacks, s.G)
	} else {
		r.stacks[s.G] = stack
	}
}

// Add records an already finished span (server-side intervals taken
// from the job's own timestamps) and returns its ID.
func (r *Recorder) Add(name string, job, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Name: name, Start: start.Sub(r.t0).Nanoseconds(),
		End: end.Sub(r.t0).Nanoseconds(), Parent: parent, Job: job})
	return id
}

// Spans returns a copy of the closed spans, in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns each span's self time: its duration minus the time
// covered by its child spans. Children may overlap each other (units
// of one job run on parallel workers); the covered time is the length
// of the union of their intervals, clipped to the parent's.
func SelfTimes(spans []Span) map[int]int64 {
	byID := make(map[int]Span, len(spans))
	children := map[int][][2]int64{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - unionLen(children[s.ID])
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
