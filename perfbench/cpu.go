package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuModules are the program's packages the CPU split reports, as
// metric suffixes (cpu.<module>); "la/sparse" becomes "la.sparse".
var cpuModules = []string{
	"dtsim", "eval", "fit", "gate", "gen", "hybrid", "idm", "inertial", "la", "la.sparse",
	"netlist", "nor", "ode", "pool", "roots", "serve", "session", "spice", "store", "sweep",
	"trace", "waveform",
}

// cpuGroups are the buckets outside the program: the Go runtime
// (scheduler, allocator, garbage collector), the rest of the standard
// library, and the benchmark's own code.
var cpuGroups = []string{"runtime", "stdlib", "bench"}

// cpuByPackage returns self CPU nanoseconds per Go package of the
// runtime/pprof CPU profile at path, as `go tool pprof -top` reports
// the flat time of each function.
func cpuByPackage(ctx context.Context, path string) (map[string]int64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ns", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parsePprofTop(out)
}

// parsePprofTop reads the rows of `go tool pprof -top -unit=ns` output
// ("flat flat% sum% cum cum% function") into flat nanoseconds per
// package. The rows must add up to the profile's total ("... of Nns
// total"), so no function was dropped from the table.
func parsePprofTop(out []byte) (map[string]int64, error) {
	byPkg := map[string]int64{}
	rows := false
	var total, sum int64 = -1, 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			if n := len(f); n >= 3 && f[n-1] == "total" && f[n-3] == "of" {
				total, _ = strconv.ParseInt(strings.TrimSuffix(f[n-2], "ns"), 10, 64)
			}
			rows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		byPkg[packageOf(fn)] += ns
		sum += ns
	}
	if !rows {
		return nil, fmt.Errorf("pprof output has no table: %q", out)
	}
	if sum != total {
		return nil, fmt.Errorf("pprof rows add up to %dns, the profile holds %dns", sum, total)
	}
	return byPkg, sc.Err()
}

// packageOf extracts the import path from a qualified function name
// ("hybriddelay/internal/spice.(*Solver).step" -> "hybriddelay/internal/spice").
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuBucket maps an import path onto a cpu.<name> metric suffix.
func cpuBucket(pkg string) string {
	if mod, ok := strings.CutPrefix(pkg, "hybriddelay/internal/"); ok {
		mod = strings.ReplaceAll(mod, "/", ".")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "stdlib"
	}
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "hybriddelay/"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}

// cpuShares folds per-package CPU time into cpu.<bucket> shares of the
// profile's total. Every bucket is present, zero when unsampled.
func cpuShares(byPkg map[string]int64) map[string]float64 {
	out := map[string]float64{}
	for _, b := range append(append([]string(nil), cpuModules...), cpuGroups...) {
		out["cpu."+b] = 0
	}
	var total int64
	//hybrid:nondet-ok commutative integer sums per bucket; the result is independent of visit order
	for pkg, ns := range byPkg {
		out["cpu."+cpuBucket(pkg)] += float64(ns)
		total += ns
	}
	if total > 0 {
		//hybrid:nondet-ok each bucket is scaled in place; distinct keys
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out
}
