package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. The benchmark runs on a virtual machine whose vCPUs share
// physical cores with other tenants, and the speed they get drifts by
// 30–80% over seconds to minutes while the guest sees almost no steal
// time: the same job takes 28 ms in one ten-second stretch and 48 ms in
// the next. A fixed reference kernel, owned by the benchmark and never
// run by the program, is timed between the workload's jobs by its
// thread's CPU clock. Its time tracks the host's speed: over two and a
// half minutes of a fixed golden job and the kernel run side by side,
// the job's time moved by ±40% between ten-second stretches and its
// ratio to the kernel's by ±4%. The end-to-end times are reported at
// the reference speed: a time measured at some moment is multiplied by
// refSampleNs over the kernel's time at that moment. A change to the
// program cannot change the kernel; a change to the kernel or to
// refSampleNs resets every baseline.

const (
	// kernelReps is the kernel's repetitions per sample (about 1.5 ms
	// of CPU on the machine refSampleNs was taken on).
	kernelReps = 16
	// refSampleNs is one sample's thread CPU time at the reference
	// speed, a typical figure on the 2-vCPU Intel Xeon VM the
	// benchmark was written on.
	refSampleNs = 1.5e6
	// probeInterval is the shortest gap between two samples taken
	// during the window.
	probeInterval = 100 * time.Millisecond
	// speedWindow is the half-width of the stretch of samples that
	// gives the speed at one moment.
	speedWindow = time.Second
	// minLocalSamples is the fewest samples a stretch needs; with
	// fewer, the median of the whole window stands in.
	minLocalSamples = 5
	// setupSamples is the number of samples taken before and after
	// each set-up.
	setupSamples = 12
)

// kernelSink keeps the kernel's result alive.
var kernelSink float64

// refKernel is a stand-in for a transient: reps Newton solves of a
// small nonlinear network with exponential branch currents, with a
// dense LU factorization with partial pivoting at every iteration. It
// allocates nothing, so it never assists the garbage collector.
func refKernel(reps int) float64 {
	const n = 14
	var s float64
	for r := 0; r < reps; r++ {
		var x, b [n]float64
		var a [n * n]float64
		for it := 0; it < 40; it++ {
			a = [n * n]float64{}
			for i := 0; i < n; i++ {
				e := math.Exp(math.Min(x[i]*20, 30))
				a[i*n+i] = 2 + 0.02*e
				if i > 0 {
					a[i*n+i-1] = -1
				}
				if i < n-1 {
					a[i*n+i+1] = -1
				}
				a[i*n+(i*7+3)%n] += 0.1
				b[i] = -(2*x[i] + 1e-3*(e-1) - 0.5 - float64(r%5)*0.01)
			}
			for k := 0; k < n; k++ {
				p := k
				for i := k + 1; i < n; i++ {
					if math.Abs(a[i*n+k]) > math.Abs(a[p*n+k]) {
						p = i
					}
				}
				if p != k {
					for j := 0; j < n; j++ {
						a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
					}
					b[k], b[p] = b[p], b[k]
				}
				for i := k + 1; i < n; i++ {
					f := a[i*n+k] / a[k*n+k]
					for j := k; j < n; j++ {
						a[i*n+j] -= f * a[k*n+j]
					}
					b[i] -= f * b[k]
				}
			}
			for i := n - 1; i >= 0; i-- {
				t := b[i]
				for j := i + 1; j < n; j++ {
					t -= a[i*n+j] * b[j]
				}
				b[i] = t / a[i*n+i]
			}
			for i := range x {
				x[i] += 0.5 * b[i]
			}
		}
		s += x[0]
	}
	return s
}

// threadCPUNs reads the calling thread's CPU clock. Time the thread
// spends waiting to run is not on it, so the benchmark's own workers
// do not slow a sample down; a slower host does.
func threadCPUNs() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// speedSample is one timing of the reference kernel.
type speedSample struct {
	at time.Time // the sample's midpoint
	ns float64   // thread CPU time
}

// sampleKernel runs the kernel once. The caller must hold its OS
// thread (runtime.LockOSThread).
func sampleKernel() speedSample {
	t0, c0 := time.Now(), threadCPUNs()
	kernelSink += refKernel(kernelReps)
	ns := float64(threadCPUNs() - c0)
	return speedSample{at: t0.Add(time.Since(t0) / 2), ns: ns}
}

// calibrate takes n samples back to back.
func calibrate(n int) []speedSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]speedSample, n)
	for i := range out {
		out[i] = sampleKernel()
	}
	return out
}

// speedProbe collects the window's samples. The load loops call
// sample when none of their jobs is running, so a sample never
// competes with the program for the machine and the program's own
// load never slows a sample down.
type speedProbe struct {
	mu      sync.Mutex
	last    time.Time
	samples []speedSample // in time order
}

// sample takes one sample unless the last was taken less than
// probeInterval ago. A nil probe takes none.
func (p *speedProbe) sample() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if time.Since(p.last) < probeInterval {
		return
	}
	p.samples = append(p.samples, calibrate(1)...)
	p.last = time.Now()
}

// speed turns samples into the factor that brings a time measured at
// some moment to the reference speed.
type speed struct {
	samples []speedSample // in time order
	overall float64       // median sample over all of them
}

func newSpeed(samples []speedSample) speed {
	return speed{samples: samples, overall: medianNs(samples)}
}

func medianNs(samples []speedSample) float64 {
	ns := make([]float64, len(samples))
	for i, s := range samples {
		ns[i] = s.ns
	}
	return median(ns)
}

// scale is refSampleNs over the median sample of the window, or 1
// when there are no samples.
func (s speed) scale() float64 {
	if s.overall <= 0 {
		return 1
	}
	return refSampleNs / s.overall
}

// scaleAt is refSampleNs over the median sample within speedWindow of
// t, falling back to scale when that stretch holds fewer than
// minLocalSamples samples.
func (s speed) scaleAt(t time.Time) float64 {
	lo := sort.Search(len(s.samples), func(i int) bool { return !s.samples[i].at.Before(t.Add(-speedWindow)) })
	hi := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].at.After(t.Add(speedWindow)) })
	if hi-lo < minLocalSamples {
		return s.scale()
	}
	return refSampleNs / medianNs(s.samples[lo:hi])
}
