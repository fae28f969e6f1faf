package hybrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddelay/internal/trace"
)

// lead is a settling prefix before the first stimulus event.
const lead = 500e-12

// TestChannelMatchesFallingDelay: for isolated rising input pairs the
// channel's output fall time reproduces FallingDelay(Delta) exactly.
func TestChannelMatchesFallingDelay(t *testing.T) {
	p := TableI()
	for _, dd := range []float64{-120e-12, -40e-12, -5e-12, 0, 5e-12, 40e-12, 120e-12} {
		tA := lead
		tB := lead + dd
		if dd < 0 {
			tA, tB = lead-dd, lead
		}
		a := trace.New(false, []trace.Event{{Time: tA, Value: true}})
		b := trace.New(false, []trace.Event{{Time: tB, Value: true}})
		out, err := ApplyNOR(p, a, b, 3e-9, p.Supply.VDD)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Initial || out.NumEvents() != 1 || out.Events[0].Value {
			t.Fatalf("Delta=%g: output trace %+v", dd, out.Events)
		}
		want, err := p.FallingDelay(dd)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Events[0].Time - math.Min(tA, tB)
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("Delta=%g: channel delay %g, FallingDelay %g", dd, got, want)
		}
	}
}

// TestChannelMatchesRisingDelay: isolated falling input pairs starting
// from mode (1,1) with a prescribed V_N reproduce RisingDelay.
func TestChannelMatchesRisingDelay(t *testing.T) {
	p := TableI()
	for _, vn := range []float64{0, p.Supply.VDD / 2, p.Supply.VDD} {
		for _, dd := range []float64{-120e-12, -30e-12, 0, 30e-12, 120e-12} {
			tA := lead
			tB := lead + dd
			if dd < 0 {
				tA, tB = lead-dd, lead
			}
			a := trace.New(true, []trace.Event{{Time: tA, Value: false}})
			b := trace.New(true, []trace.Event{{Time: tB, Value: false}})
			out, err := ApplyNOR(p, a, b, 3e-9, vn)
			if err != nil {
				t.Fatal(err)
			}
			if out.Initial || out.NumEvents() != 1 || !out.Events[0].Value {
				t.Fatalf("vn=%g Delta=%g: output trace %+v", vn, dd, out.Events)
			}
			want, err := p.RisingDelayFrom(dd, vn)
			if err != nil {
				t.Fatal(err)
			}
			got := out.Events[0].Time - math.Max(tA, tB)
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("vn=%g Delta=%g: channel delay %g, RisingDelay %g", vn, dd, got, want)
			}
		}
	}
}

// TestChannelOutputAlwaysValid: random stimuli never produce malformed
// output traces (sorted, alternating).
func TestChannelOutputAlwaysValid(t *testing.T) {
	p := TableI()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func() trace.Trace {
			var ev []trace.Event
			tm := lead
			v := false
			for i := 0; i < rng.Intn(25); i++ {
				tm += (10 + rng.ExpFloat64()*120) * 1e-12
				v = !v
				ev = append(ev, trace.Event{Time: tm, Value: v})
			}
			return trace.New(false, ev)
		}
		a, b := gen(), gen()
		out, err := ApplyNOR(p, a, b, 20e-9, p.Supply.VDD)
		if err != nil {
			return false
		}
		return out.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestChannelSettles: after inputs settle, the digital output value
// equals the NOR of the final input values (long settle window).
func TestChannelSettles(t *testing.T) {
	p := TableI()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func() trace.Trace {
			var ev []trace.Event
			tm := lead
			v := false
			for i := 0; i < rng.Intn(12); i++ {
				tm += (150 + rng.Float64()*300) * 1e-12 // wide spacing
				v = !v
				ev = append(ev, trace.Event{Time: tm, Value: v})
			}
			return trace.New(false, ev)
		}
		a, b := gen(), gen()
		out, err := ApplyNOR(p, a, b, 40e-9, p.Supply.VDD)
		if err != nil {
			return false
		}
		want := !(a.Final() || b.Final())
		return out.Final() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestChannelShortPulseFiltered: an input pulse much shorter than the
// gate delay leaves no output transition (the trajectory never reaches
// the threshold).
func TestChannelShortPulseFiltered(t *testing.T) {
	p := TableI()
	a := trace.New(false, []trace.Event{
		{Time: lead, Value: true},
		{Time: lead + 5e-12, Value: false},
	})
	out, err := ApplyNOR(p, a, trace.Trace{Initial: false}, 5e-9, p.Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 0 {
		t.Errorf("5 ps pulse produced output events: %+v", out.Events)
	}
}

// TestChannelLongPulseTransmitted: a pulse much longer than the delay
// passes with two transitions.
func TestChannelLongPulseTransmitted(t *testing.T) {
	p := TableI()
	a := trace.New(false, []trace.Event{
		{Time: lead, Value: true},
		{Time: lead + 500e-12, Value: false},
	})
	out, err := ApplyNOR(p, a, trace.Trace{Initial: false}, 5e-9, p.Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 2 {
		t.Fatalf("long pulse produced %+v", out.Events)
	}
	if out.Events[0].Value || !out.Events[1].Value {
		t.Error("pulse polarity wrong")
	}
}

// TestChannelVNHistory: the channel carries V_N across mode (1,1)
// periods. If the gate passed through (0,0) before entering (1,1), V_N
// is VDD and the next rising output is faster than from the worst case.
func TestChannelVNHistory(t *testing.T) {
	p := TableI()
	// Cycle: (0,0) -> both rise at t1 -> (1,1) -> both fall at t2.
	t1, t2 := lead, lead+600e-12
	a := trace.New(false, []trace.Event{{Time: t1, Value: true}, {Time: t2, Value: false}})
	b := trace.New(false, []trace.Event{{Time: t1, Value: true}, {Time: t2, Value: false}})
	out, err := ApplyNOR(p, a, b, 5e-9, 0 /* vn0 irrelevant: gate starts in (0,0) */)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 2 {
		t.Fatalf("events: %+v", out.Events)
	}
	riseDelay := out.Events[1].Time - t2
	fromVDD, err := p.RisingDelayFrom(0, p.Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	fromGND, err := p.RisingDelayFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(riseDelay-fromVDD) > 1e-15 {
		t.Errorf("rise delay %g, want %g (V_N = VDD carried from (0,0) history)", riseDelay, fromVDD)
	}
	if math.Abs(riseDelay-fromGND) < 1e-15 {
		t.Error("channel ignored the V_N history")
	}
}

// TestChannelDeferredCrossingSurvives is the regression test for the
// pure-delay window bug: a threshold crossing scheduled inside
// [now, now+DMin) must survive a later input event (the event only
// changes the trajectory after its own effective time).
func TestChannelDeferredCrossingSurvives(t *testing.T) {
	p := TableI() // DMin = 18 ps
	// Both inputs high; B falls, then A falls; output rises; B rises
	// again just before the (deferred) crossing would be cancelled.
	a := trace.New(true, []trace.Event{{Time: 865.9e-12, Value: false}, {Time: 973.8e-12, Value: true}})
	b := trace.New(true, []trace.Event{{Time: 794.9e-12, Value: false}, {Time: 952.6e-12, Value: true}})
	out, err := ApplyNOR(p, a, b, 3e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The output must both rise and fall back: the pulse is wide enough.
	if out.NumEvents() != 2 {
		t.Fatalf("expected rise+fall, got %+v", out.Events)
	}
	if !out.Events[0].Value || out.Events[1].Value {
		t.Errorf("polarities wrong: %+v", out.Events)
	}
}

// TestChannelSimultaneousEdges: both inputs switching at the identical
// timestamp behave like Delta = 0.
func TestChannelSimultaneousEdges(t *testing.T) {
	p := TableI()
	a := trace.New(false, []trace.Event{{Time: lead, Value: true}})
	b := trace.New(false, []trace.Event{{Time: lead, Value: true}})
	out, err := ApplyNOR(p, a, b, 3e-9, p.Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.FallingDelay(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 1 {
		t.Fatalf("events: %+v", out.Events)
	}
	if got := out.Events[0].Time - lead; math.Abs(got-want) > 1e-15 {
		t.Errorf("simultaneous delay %g, want %g", got, want)
	}
}

// TestApplyNORRejectsInvalidParams: validation propagates.
func TestApplyNORRejectsInvalidParams(t *testing.T) {
	p := TableI()
	p.R3 = -1
	if _, err := ApplyNOR(p, trace.Trace{}, trace.Trace{}, 1e-9, 0); err == nil {
		t.Error("invalid params accepted")
	}
}

// assertEvents fails unless got is exactly (bit for bit) the expected
// output trace.
func assertEvents(t *testing.T, name string, got trace.Trace, initial bool, want []trace.Event) {
	t.Helper()
	if got.Initial != initial || len(got.Events) != len(want) {
		t.Fatalf("%s: got initial %v events %+v, want initial %v events %+v", name, got.Initial, got.Events, initial, want)
	}
	for i, e := range want {
		g := got.Events[i]
		if g.Value != e.Value || math.Float64bits(g.Time) != math.Float64bits(e.Time) {
			t.Fatalf("%s: event %d %+v, want %+v", name, i, g, e)
		}
	}
}

// tableICrossing is the output fall of TableI's NOR after input A alone
// rises at 500 ps with B low (V_N = VDD).
var tableICrossing = math.Float64frombits(0x3e0285c7b3734d37) // 539.078 ps

// TestApplyNOREventOrder pins the channel's event order bit for bit:
// at equal times A's edge is handled before B's, and both before the
// pending output crossing; nothing after until fires. The expected
// events are those of the event-queue implementation the merge loop
// replaced.
func TestApplyNOREventOrder(t *testing.T) {
	p := TableI()
	vdd := p.Supply.VDD
	bits := math.Float64frombits
	tied := mkTrace(false, 500e-12, 530e-12, 700e-12, 760e-12, 1000e-12, 1300e-12)
	for _, c := range []struct {
		name       string
		a, b       trace.Trace
		until, vn0 float64
		initial    bool
		want       []trace.Event
	}{
		{"same instant rise", mkTrace(false, 500e-12), mkTrace(false, 500e-12), 3e-9, 0, true,
			[]trace.Event{{Time: bits(0x3e02249a28f433af), Value: false}}},
		{"same instant fall", mkTrace(true, 500e-12), mkTrace(true, 500e-12), 3e-9, 0, false,
			[]trace.Event{{Time: bits(0x3e0311cca53976ce), Value: true}}},
		// A rises while B falls at the same instant, twice: the output
		// stays low.
		{"same instant opposite", mkTrace(false, 500e-12, 900e-12), mkTrace(true, 500e-12, 900e-12), 3e-9, vdd, false, nil},
		// Tied inputs, as a NOR wired as an inverter sees them.
		{"tied", tied, tied, 3e-9, vdd, true, []trace.Event{
			{Time: bits(0x3e02249a28f433af), Value: false},
			{Time: bits(0x3e03c8c836576990), Value: true},
			{Time: bits(0x3e08ffb33e08df45), Value: false},
			{Time: bits(0x3e0be63dfcbdf5aa), Value: true},
			{Time: bits(0x3e11a8bb801df1a2), Value: false},
			{Time: bits(0x3e173d76c639fd8a), Value: true},
		}},
		// An input edge exactly at the pending crossing is handled first;
		// the crossing search restarted at that instant no longer finds
		// the crossing.
		{"A edge on crossing", mkTrace(false, 500e-12, tableICrossing), mkTrace(false), 3e-9, vdd, true, nil},
		{"B rise on crossing", mkTrace(false, 500e-12), mkTrace(false, tableICrossing), 3e-9, vdd, true, nil},
		{"B fall on crossing", mkTrace(false, 500e-12), mkTrace(true, tableICrossing), 3e-9, vdd, false, nil},
		{"edge after until", mkTrace(false, 500e-12, 2e-9), mkTrace(false), 1e-9, vdd, true,
			[]trace.Event{{Time: tableICrossing, Value: false}}},
		{"crossing after until", mkTrace(false, 500e-12), mkTrace(false), 510e-12, vdd, true, nil},
	} {
		got, err := ApplyNOR(p, c.a, c.b, c.until, c.vn0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertEvents(t, c.name, got, c.initial, c.want)
	}
}

// TestApplyNORRejectsBadEventTimes: inputs the channel cannot replay in
// time order are errors, on either input.
func TestApplyNORRejectsBadEventTimes(t *testing.T) {
	p := TableI()
	for _, c := range []struct {
		name string
		ev   []trace.Event
	}{
		{"out of order", []trace.Event{{Time: 2e-10, Value: true}, {Time: 1e-10, Value: false}}},
		{"NaN", []trace.Event{{Time: math.NaN(), Value: true}}},
		{"negative", []trace.Event{{Time: -1e-10, Value: true}}},
		{"infinite", []trace.Event{{Time: math.Inf(1), Value: true}}},
	} {
		bad := trace.Trace{Events: c.ev}
		if _, err := ApplyNOR(p, bad, trace.Trace{}, 3e-9, 0); err == nil {
			t.Errorf("%s on A accepted", c.name)
		}
		if _, err := ApplyNOR(p, trace.Trace{}, bad, 3e-9, 0); err == nil {
			t.Errorf("%s on B accepted", c.name)
		}
	}
}
