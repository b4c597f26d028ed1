package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The tables below are the
// benchmark's contract with BENCHMARK.json; a test keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

// endToEnd lists the metrics of an untraced run (--trace 0). Every
// workload reports every one of them. Times are host CPU seconds at the
// reference speed (see scaled).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"pass_cpu_s", "s", "lower", 0.25},
	{"events_per_cpu_s", "events/s", "higher", 0.25},
}

// perLayer lists the metrics of a traced run (--trace 1). Every workload
// reports every one of them: the layers its own operations do not reach
// are measured by the probes that every traced run makes.
var perLayer = []metricDef{
	{"core.run_s", "s", "lower", 0},
	{"dsm.oracle_s", "s", "lower", 0},
	{"apps.setup_s", "s", "lower", 0},
	{"apps.self_s", "s", "lower", 0},
	{"core.machinery_s", "s", "lower", 0},
	{"apps.shared_reads", "count", "lower", 0},
	{"apps.shared_writes", "count", "lower", 0},
	{"apps.locks", "count", "lower", 0},
	{"apps.barriers", "count", "lower", 0},
	{"apps.computes", "count", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.handoffs", "count", "lower", 0},
	{"sim.elided_parks", "count", "higher", 0},
	{"sim.max_heap_depth", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.handoff_ns", "ns", "lower", 0},
	{"sim.handoff_probe_ops", "count", "higher", 0},
	{"network.messages", "count", "lower", 0},
	{"network.bytes", "bytes", "lower", 0},
	{"network.retries", "count", "lower", 0},
	{"network.send_ns", "ns", "lower", 0},
	{"network.send_probe_ops", "count", "higher", 0},
	{"network.send_ns_256", "ns", "lower", 0},
	{"network.send_probe_ops_256", "count", "higher", 0},
	{"memsys.read_ns", "ns", "lower", 0},
	{"memsys.read_probe_ops", "count", "higher", 0},
	{"stats.sim_cycles", "cycles", "lower", 0},
	{"stats.busy_cycles", "cycles", "lower", 0},
	{"stats.data_cycles", "cycles", "lower", 0},
	{"stats.synch_cycles", "cycles", "lower", 0},
	{"stats.ipc_cycles", "cycles", "lower", 0},
	{"stats.other_cycles", "cycles", "lower", 0},
	{"stats.page_faults", "count", "lower", 0},
	{"stats.diffs_applied", "count", "lower", 0},
	{"serve.hit_p50_ms", "ms", "lower", 0},
	{"serve.hit_p90_ms", "ms", "lower", 0},
	{"serve.hit_p99_ms", "ms", "lower", 0},
	{"serve.miss_p50_ms", "ms", "lower", 0},
	{"serve.miss_p90_ms", "ms", "lower", 0},
	{"serve.artifact_p50_ms", "ms", "lower", 0},
	{"serve.run_p50_ms", "ms", "lower", 0},
	{"serve.overhead_p50_ms", "ms", "lower", 0},
	{"serve.hit_time_pct", "%", "lower", 0},
	{"serve.hits", "count", "higher", 0},
	{"serve.misses", "count", "higher", 0},
	{"serve.hit_ratio", "ratio", "higher", 0},
	{"serve.deduped", "count", "lower", 0},
	{"serve.rejected_busy", "count", "lower", 0},
	{"serve.failed", "count", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its operation accounting.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// op records one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failed operation that was already counted as attempted
// (a check on an operation's output, or a server-side failure).
func (r *report) fail(err error) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
}

// result renders the final JSON object, keeping exactly the metrics of
// defs. A metric a workload forgot to set is a benchmark bug, reported
// as a failure rather than printed as zero.
func (r *report) result(defs []metricDef) map[string]any {
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.attempted++
			r.fail(fmt.Errorf("metric %s was not measured", d.Name))
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.fail(fmt.Errorf("no operation was attempted"))
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	}
}

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "type 7" estimator). xs is not modified; an empty
// slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
