package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the number of samples the tail figure must have above
// it, so it is never one or two outliers.
const minBeyond = 10

// tail returns the highest nearest-rank percentile of samples that has
// at least minBeyond samples strictly above it, with the percentile
// (100·rank/n). ok is false when no rank qualifies (fewer than
// minBeyond+1 samples, or ties at the top); the maximum is returned.
func tail(samples []float64) (v, pct float64, ok bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	for k := n - minBeyond; k >= 1; k-- {
		above := n - sort.SearchFloat64s(s, math.Nextafter(s[k-1], math.Inf(1)))
		if above >= minBeyond {
			return s[k-1], 100 * float64(k) / float64(n), true
		}
	}
	return s[n-1], 100, false
}

// median is the middle sample (the mean of the two middle samples for
// an even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// machine describes the host the figures were measured on.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func machineShape() machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// cpuTicks reads the machine's total and stolen CPU time, in clock
// ticks, from the first line of /proc/stat. Steal is time the
// hypervisor ran something else while a virtual CPU had work; it
// slows every timing of a run, whatever the program does.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user, nice, system, idle, iowait, irq, softirq, steal; the guest
	// columns after them are already counted in user and nice.
	for _, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return total, steal
}
