package hybrid

import (
	"fmt"
	"math"

	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
	"hybriddelay/internal/trace"
)

// This file is the paper's 2-input hybrid NOR delay channel for digital
// timing simulation (§VI): it listens to both input traces, advances the
// continuous state (V_N, V_O) along the closed-form mode trajectories,
// switches modes at pure-delay-shifted input threshold crossings, and
// emits an output transition whenever the resulting V_O trajectory
// crosses V_th.
//
// Unlike single-input single-output involution channels, this channel
// sees which input switched and in which temporal relation to the other
// input — which is exactly what lets it reproduce MIS effects.
//
// Because the pure delay DMin defers each mode switch, the channel's
// continuous future is known DMin ahead of the simulation clock. It is
// kept as a piecewise trajectory (a list of segments), so threshold
// crossings that fall inside the deferred window survive later input
// events — an input event only changes the trajectory *after* its own
// effective switch time.

type futureSeg struct {
	start float64
	sol   *ode.Solution2 // local time: t - start
}

// crossingFunc finds the first crossing of a segment's V_O through level
// in the given direction within [t0, t1] (outputCrossing's signature).
type crossingFunc func(sol *ode.Solution2, start, level float64, rising bool, t0, t1 float64) (float64, bool)

// future is the piecewise future of the continuous state: segs[i] is
// active on [segs[i].start, segs[i+1].start), the last segment extends
// to infinity. Invariant: segs[0].start <= the channel clock after every
// event, and the list is sorted.
type future struct {
	segs  []futureSeg
	cross crossingFunc
}

// steadyState returns the settled (V_N, V_O) of a mode; vn0 fills the
// V_N degree of freedom in mode (1,1).
func (p Params) steadyState(m Mode, vn0 float64) la.Vec2 {
	switch m {
	case Mode00:
		return la.Vec2{X: p.Supply.VDD, Y: p.Supply.VDD}
	case Mode01:
		return la.Vec2{X: p.Supply.VDD, Y: 0}
	case Mode10:
		return la.Vec2{X: 0, Y: 0}
	default: // Mode11
		return la.Vec2{X: vn0, Y: 0}
	}
}

func (f *future) segIndex(t float64) int {
	i := len(f.segs) - 1
	for i > 0 && f.segs[i].start > t {
		i--
	}
	return i
}

// prune drops segments that ended before now, keeping the active one.
func (f *future) prune(now float64) {
	for len(f.segs) >= 2 && f.segs[1].start <= now {
		f.segs = f.segs[1:]
	}
}

// nextCrossing finds the first crossing of level in the given direction
// at absolute time >= after, scanning every future segment.
func (f *future) nextCrossing(level float64, rising bool, after float64) (float64, bool) {
	for i, seg := range f.segs {
		var end float64
		if i+1 < len(f.segs) {
			end = f.segs[i+1].start
		} else {
			tau := seg.sol.SlowestTimeConstant()
			if math.IsInf(tau, 1) {
				tau = 1e-9
			}
			end = math.Max(seg.start, after) + 60*tau
		}
		if end <= after {
			continue
		}
		t0 := math.Max(seg.start, after)
		if t, ok := f.cross(seg.sol, seg.start, level, rising, t0, end); ok {
			return t, true
		}
	}
	return 0, false
}

// checkEventTimes rejects input traces the channel cannot replay in
// time order: negative, non-finite or decreasing event times.
func checkEventTimes(name string, tr trace.Trace) error {
	last := 0.0
	for i, e := range tr.Events {
		if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) || e.Time < last {
			return fmt.Errorf("hybrid: input %s event %d at %g: times must be finite, non-negative and sorted", name, i, e.Time)
		}
		last = e.Time
	}
	return nil
}

// ApplyNOR runs the channel offline over two input traces and returns
// the output trace, simulating until all activity has settled or until
// `until`, whichever comes first. The initial continuous state is the
// initial mode's steady state, with V_N = vn0 in mode (1,1) where the
// steady state leaves V_N free. This is the bulk-evaluation entry point
// used by the accuracy pipeline.
func ApplyNOR(p Params, a, b trace.Trace, until float64, vn0 float64) (trace.Trace, error) {
	return applyNOR(p, a, b, until, vn0, outputCrossing)
}

// applyNOR is ApplyNOR with the per-segment crossing search as a
// parameter. It merges a's edges, b's edges and the one pending output
// crossing in time order; at equal times the crossing fires first (the
// output has reached V_th by then, and an edge at that instant only
// shapes the trajectory after it), then a's edges, then b's.
func applyNOR(p Params, a, b trace.Trace, until, vn0 float64, cross crossingFunc) (trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return trace.Trace{}, err
	}
	if err := checkEventTimes("a", a); err != nil {
		return trace.Trace{}, err
	}
	if err := checkEventTimes("b", b); err != nil {
		return trace.Trace{}, err
	}
	va, vb := a.Initial, b.Initial
	mode := ModeOf(va, vb)
	state := p.steadyState(mode, vn0)
	sol, err := p.System(mode).Solve(state)
	if err != nil {
		return trace.Trace{}, err
	}
	f := future{segs: []futureSeg{{start: 0, sol: sol}}, cross: cross}
	vth := p.Supply.Vth
	out := trace.Trace{Initial: state.Y > vth}
	cur := out.Initial
	var tc float64 // the pending output crossing, if pending
	pending := false
	ia, ib := 0, 0
	for {
		t, fromA := math.Inf(1), false
		if ia < len(a.Events) {
			t, fromA = a.Events[ia].Time, true
		}
		if ib < len(b.Events) && b.Events[ib].Time < t {
			t, fromA = b.Events[ib].Time, false
		}
		if pending && tc <= t {
			if tc > until {
				break
			}
			cur = !cur
			out.Events = append(out.Events, trace.Event{Time: tc, Value: cur})
			f.prune(tc)
			tc, pending = f.nextCrossing(vth, !cur, tc)
			continue
		}
		if t > until || (ia == len(a.Events) && ib == len(b.Events)) {
			break
		}
		changed := false
		if fromA {
			changed, va = a.Events[ia].Value != va, a.Events[ia].Value
			ia++
		} else {
			changed, vb = b.Events[ib].Value != vb, b.Events[ib].Value
			ib++
		}
		if !changed {
			continue
		}
		// The pure delay DMin defers the mode switch to t + DMin; the
		// trajectory before that instant is unaffected, and any future
		// scheduled after it is replaced.
		tEff := t + p.DMin
		i := f.segIndex(tEff)
		state := f.segs[i].sol.At(tEff - f.segs[i].start)
		mode := ModeOf(va, vb)
		sol, err := p.System(mode).Solve(state)
		if err != nil {
			return trace.Trace{}, fmt.Errorf("hybrid: mode %v solve failed: %w", mode, err)
		}
		f.segs = append(f.segs[:i+1], futureSeg{start: tEff, sol: sol})
		f.prune(t)
		tc, pending = f.nextCrossing(vth, !cur, t)
	}
	return out, nil
}
