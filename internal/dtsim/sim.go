// Package dtsim holds the single-input delay channels of the digital
// side (paper §VI): the DelayFunc interface the involution (internal/idm)
// and inertial (internal/inertial) channels implement, and ApplyDelay,
// which moves a trace's transitions through one channel offline with
// involution or inertial cancellation.
//
// The event-driven Simulator, Net, Drive and Channel stay as the
// reference implementation of those cancellation semantics:
// TestApplyDelayMatchesChannel checks ApplyDelay against them. Circuits
// are composed offline — per instance in topological order, as the
// circuit scoring in internal/eval does — not by wiring nets.
package dtsim

import (
	"container/heap"
	"fmt"
	"math"

	"hybriddelay/internal/trace"
)

// EventID identifies a scheduled event for cancellation.
type EventID int64

type schedEvent struct {
	time  float64
	seq   int64 // tie-break: FIFO among equal times
	id    EventID
	fn    func(t float64)
	dead  bool
	index int // heap index
}

type eventHeap []*schedEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*schedEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator owns the event queue and the simulation clock.
type Simulator struct {
	queue   eventHeap
	events  map[EventID]*schedEvent
	nextID  EventID
	nextSeq int64
	now     float64
	started bool
}

// NewSimulator returns an empty simulator at time zero.
func NewSimulator() *Simulator {
	return &Simulator{events: map[EventID]*schedEvent{}}
}

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Schedule registers fn to run at time t (>= current time). It returns
// an EventID that can be passed to Cancel while the event is pending.
func (s *Simulator) Schedule(t float64, fn func(t float64)) (EventID, error) {
	if s.started && t < s.now {
		return 0, fmt.Errorf("dtsim: cannot schedule at %g before current time %g", t, s.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, fmt.Errorf("dtsim: invalid event time %g", t)
	}
	s.nextID++
	s.nextSeq++
	e := &schedEvent{time: t, seq: s.nextSeq, id: s.nextID, fn: fn}
	heap.Push(&s.queue, e)
	s.events[e.id] = e
	return e.id, nil
}

// Cancel removes a pending event. Cancelling an already-fired or unknown
// event is a no-op and reports false.
func (s *Simulator) Cancel(id EventID) bool {
	e, ok := s.events[id]
	if !ok || e.dead {
		return false
	}
	e.dead = true
	delete(s.events, id)
	return true
}

// Pending reports whether the event is still scheduled.
func (s *Simulator) Pending(id EventID) bool {
	e, ok := s.events[id]
	return ok && !e.dead
}

// Run executes events in time order until the queue is exhausted or the
// next event is after `until`.
func (s *Simulator) Run(until float64) error {
	s.started = true
	for s.queue.Len() > 0 {
		e := s.queue[0]
		if e.dead {
			heap.Pop(&s.queue)
			continue
		}
		if e.time > until {
			break
		}
		heap.Pop(&s.queue)
		delete(s.events, e.id)
		if e.time < s.now {
			return fmt.Errorf("dtsim: causality violation: event at %g before clock %g", e.time, s.now)
		}
		s.now = e.time
		e.fn(e.time)
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// Net is a named boolean signal with change listeners.
type Net struct {
	Name      string
	value     bool
	listeners []func(t float64, v bool)
	rec       *trace.Trace
	recording bool
}

// NewNet returns a net with the given initial value.
func NewNet(name string, initial bool) *Net {
	return &Net{Name: name, value: initial}
}

// Value returns the current logical value.
func (n *Net) Value() bool { return n.value }

// OnChange registers a listener invoked on every value change.
func (n *Net) OnChange(fn func(t float64, v bool)) {
	n.listeners = append(n.listeners, fn)
}

// Record starts capturing the net's transitions into a trace.
func (n *Net) Record() {
	n.rec = &trace.Trace{Initial: n.value}
	n.recording = true
}

// Trace returns the recorded trace (Record must have been called).
func (n *Net) Trace() trace.Trace {
	if n.rec == nil {
		return trace.Trace{Initial: n.value}
	}
	return *n.rec
}

// Set drives the net to v at time t, notifying listeners on change.
func (n *Net) Set(t float64, v bool) {
	if v == n.value {
		return
	}
	n.value = v
	if n.recording {
		n.rec.Events = append(n.rec.Events, trace.Event{Time: t, Value: v})
	}
	for _, fn := range n.listeners {
		fn(t, v)
	}
}

// Drive schedules every transition of a trace onto the net (a stimulus
// source). The net's initial value is overwritten to match.
func Drive(sim *Simulator, n *Net, tr trace.Trace) error {
	n.value = tr.Initial
	if n.rec != nil {
		n.rec.Initial = tr.Initial
	}
	for _, e := range tr.Events {
		e := e
		if _, err := sim.Schedule(e.Time, func(t float64) { n.Set(t, e.Value) }); err != nil {
			return err
		}
	}
	return nil
}
