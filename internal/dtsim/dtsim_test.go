package dtsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddelay/internal/trace"
)

func TestSchedulerOrdering(t *testing.T) {
	sim := NewSimulator()
	var order []int
	for i, tm := range []float64{3, 1, 2} {
		i, tm := i, tm
		if _, err := sim.Schedule(tm, func(float64) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Errorf("execution order = %v", order)
	}
	if sim.Now() != 10 {
		t.Errorf("clock = %g, want 10", sim.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	sim := NewSimulator()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		sim.Schedule(1, func(float64) { order = append(order, i) })
	}
	sim.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	sim := NewSimulator()
	fired := false
	id, _ := sim.Schedule(1, func(float64) { fired = true })
	if !sim.Pending(id) {
		t.Error("event should be pending")
	}
	if !sim.Cancel(id) {
		t.Error("cancel should succeed")
	}
	if sim.Cancel(id) {
		t.Error("double cancel should report false")
	}
	sim.Run(5)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestScheduleInPast(t *testing.T) {
	sim := NewSimulator()
	sim.Schedule(5, func(float64) {})
	sim.Run(10)
	if _, err := sim.Schedule(1, func(float64) {}); err == nil {
		t.Error("expected error scheduling in the past")
	}
	if _, err := sim.Schedule(math.NaN(), func(float64) {}); err == nil {
		t.Error("expected error for NaN time")
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	sim := NewSimulator()
	fired := false
	sim.Schedule(10, func(float64) { fired = true })
	sim.Run(5)
	if fired {
		t.Error("event beyond until fired")
	}
	sim.Run(20)
	if !fired {
		t.Error("event not fired on second run")
	}
}

func TestNetListeners(t *testing.T) {
	n := NewNet("x", false)
	var got []bool
	n.OnChange(func(_ float64, v bool) { got = append(got, v) })
	n.Set(1, true)
	n.Set(2, true) // no change, no callback
	n.Set(3, false)
	if len(got) != 2 || !got[0] || got[1] {
		t.Errorf("listener calls = %v", got)
	}
}

func TestNetRecording(t *testing.T) {
	n := NewNet("x", false)
	n.Record()
	n.Set(1, true)
	n.Set(5, false)
	tr := n.Trace()
	if tr.Initial || tr.NumEvents() != 2 {
		t.Errorf("trace = %+v", tr)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	n2 := NewNet("y", true)
	if tr := n2.Trace(); !tr.Initial || tr.NumEvents() != 0 {
		t.Error("unrecorded trace should be initial-only")
	}
}

func TestDrive(t *testing.T) {
	sim := NewSimulator()
	n := NewNet("in", true)
	n.Record()
	tr := trace.New(false, []trace.Event{{Time: 1, Value: true}, {Time: 2, Value: false}})
	if err := Drive(sim, n, tr); err != nil {
		t.Fatal(err)
	}
	if n.Value() {
		t.Error("Drive should reset the initial value")
	}
	sim.Run(10)
	got := n.Trace()
	if got.NumEvents() != 2 || got.Initial {
		t.Errorf("driven trace = %+v", got)
	}
}

type fixedDelay struct{ up, down float64 }

func (f fixedDelay) DelayUp(float64) float64   { return f.up }
func (f fixedDelay) DelayDown(float64) float64 { return f.down }

func TestChannelBasicDelay(t *testing.T) {
	sim := NewSimulator()
	in := NewNet("in", false)
	out := NewNet("out", false)
	out.Record()
	NewChannel(sim, "ch", in, out, fixedDelay{up: 2, down: 3})
	Drive(sim, in, trace.New(false, []trace.Event{
		{Time: 10, Value: true},
		{Time: 20, Value: false},
	}))
	sim.Run(100)
	got := out.Trace()
	if got.NumEvents() != 2 {
		t.Fatalf("out events = %+v", got.Events)
	}
	if got.Events[0].Time != 12 || got.Events[1].Time != 23 {
		t.Errorf("out times = %g, %g; want 12, 23", got.Events[0].Time, got.Events[1].Time)
	}
}

func TestChannelPulseCancellation(t *testing.T) {
	// Inertial semantics: a 1-wide pulse through a delay-5 channel dies.
	sim := NewSimulator()
	in := NewNet("in", false)
	out := NewNet("out", false)
	out.Record()
	NewChannelWithPolicy(sim, "ch", in, out, fixedDelay{up: 5, down: 5}, PolicyInertial)
	Drive(sim, in, trace.New(false, []trace.Event{
		{Time: 10, Value: true},
		{Time: 11, Value: false},
	}))
	sim.Run(100)
	if got := out.Trace(); got.NumEvents() != 0 {
		t.Errorf("short pulse survived: %+v", got.Events)
	}
}

func TestChannelLongPulseSurvives(t *testing.T) {
	sim := NewSimulator()
	in := NewNet("in", false)
	out := NewNet("out", false)
	out.Record()
	NewChannelWithPolicy(sim, "ch", in, out, fixedDelay{up: 5, down: 5}, PolicyInertial)
	Drive(sim, in, trace.New(false, []trace.Event{
		{Time: 10, Value: true},
		{Time: 20, Value: false},
	}))
	sim.Run(100)
	if got := out.Trace(); got.NumEvents() != 2 {
		t.Errorf("long pulse mangled: %+v", got.Events)
	}
}

// TestApplyDelayMatchesChannel: the offline transformation and the
// event-driven channel agree on random traces and random constant delays.
func TestApplyDelayMatchesChannel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ev []trace.Event
		tm := 0.0
		v := false
		for i := 0; i < 3+rng.Intn(20); i++ {
			tm += 0.2 + rng.ExpFloat64()*4
			v = !v
			ev = append(ev, trace.Event{Time: tm, Value: v})
		}
		in := trace.New(false, ev)
		df := fixedDelay{up: 0.5 + rng.Float64()*4, down: 0.5 + rng.Float64()*4}

		offline := ApplyDelay(in, df)

		sim := NewSimulator()
		nin := NewNet("in", false)
		nout := NewNet("out", false)
		nout.Record()
		NewChannel(sim, "ch", nin, nout, df)
		if err := Drive(sim, nin, in); err != nil {
			return false
		}
		if err := sim.Run(tm + 100); err != nil {
			return false
		}
		online := nout.Trace()

		if offline.NumEvents() != online.NumEvents() {
			return false
		}
		for i := range offline.Events {
			if math.Abs(offline.Events[i].Time-online.Events[i].Time) > 1e-12 ||
				offline.Events[i].Value != online.Events[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestApplyDelayOutputValid: outputs are always well-formed traces.
func TestApplyDelayOutputValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ev []trace.Event
		tm := 0.0
		v := false
		for i := 0; i < rng.Intn(30); i++ {
			tm += 0.1 + rng.ExpFloat64()*2
			v = !v
			ev = append(ev, trace.Event{Time: tm, Value: v})
		}
		in := trace.New(false, ev)
		out := ApplyDelay(in, fixedDelay{up: rng.Float64() * 5, down: rng.Float64() * 5})
		return out.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
