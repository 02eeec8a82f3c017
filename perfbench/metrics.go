package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metricDef is one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json names exactly these, a plain run prints every
// end-to-end metric and a traced run every per-layer metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the pipeline or the daemon sees. Every
// workload defines each of them (README.md gives the per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"events_per_cpu_s", "1/s", "higher", 0.25},
	{"feed_cpu_p50_ms", "ms", "lower", 0.25},
	{"feed_cpu_p95_ms", "ms", "lower", 0.25},
	{"accuracy_pct", "%", "higher", 0.2},
	{"coverage_pct", "%", "higher", 0.1},
}

// simulated lists every prefetcher a sweep workload simulates; per-layer
// metrics carry one entry per name.
var simulated = []string{
	"none", "bo", "isb", "sms", "vldp", "domino", "imp", "markov",
	"delta-lstm", "voyager", "transfetch", "mpgraph",
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reports 0. "higher" marks counts of work or input volume (a
// change that silently skips work shows as a drop), "lower" marks time,
// waste and failures.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		higher("bench.events_per_wall_s", "1/s"),
		lower("bench.feed_wall_p50_ms", "ms"),
		lower("bench.feed_wall_p99_ms", "ms"),
		lower("bench.calibration_ms", "ms"),
		lower("graph.generate_s", "s"),
		lower("frameworks.trace_s", "s"),
		higher("trace.accesses", "count"),
		lower("models.suite_s", "s"),
		higher("models.train_samples", "count"),
		lower("resilience.resume_s", "s"),
		lower("sim.engine_s", "s"),
		higher("sim.mpgraph_ipc_gain_pct", "%"),
		higher("experiments.sweep_busy_share", "%"),
		lower("core.operate_p50_us", "us"),
		lower("core.operate_p99_us", "us"),
		lower("core.operate_cycles_p50", "cycles"),
		lower("core.cycles_over_fig14", "x"),
		higher("core.transitions", "count"),
		lower("prefetch.guard_quarantines", "count"),
		higher("prefetch.batch_calls", "count"),
		lower("prefetch.batch_call_s", "s"),
		lower("serve.handler_p50_ms", "ms"),
		lower("serve.handler_p99_ms", "ms"),
		lower("serve.operate_s", "s"),
		lower("serve.self_s", "s"),
		lower("serve.new_primary_s", "s"),
		higher("serve.admitted", "count"),
		lower("serve.evicted", "count"),
		lower("serve.rejected", "count"),
		lower("serve.feed_errors", "count"),
		lower("serve.degraded_sessions", "count"),
		higher("trace.spans", "count"),
		lower("trace.overhead_pct", "%"),
	}
	for _, pf := range simulated {
		defs = append(defs, lower("prefetch.operate_s."+pf, "s"), higher("prefetch.operate_calls."+pf, "count"))
		if pf != "none" {
			defs = append(defs, lower("sim.late_share."+pf, "%"), lower("sim.dropped."+pf, "count"))
		}
	}
	return defs
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object for defs from the measured values. A value
// the workload did not measure is an error for end-to-end metrics and 0 for
// per-layer ones.
func fill(defs []metricDef, got map[string]float64, zeroMissing bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// percentile returns the p-th percentile (0..100) of ds by the
// nearest-rank method; 0 for an empty slice. ds is sorted in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	rank := int(p/100*float64(len(ds))+0.5) - 1
	rank = max(0, min(rank, len(ds)-1))
	return ds[rank]
}

// median returns the median of ds (0 for an empty slice); ds is sorted in
// place.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// settleMemory starts the measured phase's peak RSS: it collects the
// set-up's garbage, returns it to the OS and restarts the VmHWM
// high-water mark from the current RSS (Linux clear_refs mode 5). The
// set-up's transient peak depends on when the GC happened to run and would
// add noise; what stays resident from set-up is still counted.
func settleMemory() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset the peak RSS: %v\n", err)
	}
}

// The clocks cpuTime reads: the whole process, or the calling OS thread.
const (
	processClock = 2 // CLOCK_PROCESS_CPUTIME_ID
	threadClock  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime returns the CPU time of the process or of the calling thread, at
// nanosecond resolution. Unlike wall time it excludes time the host steals
// from the virtual CPUs, which swings widely on a shared machine.
func cpuTime(clock int) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
