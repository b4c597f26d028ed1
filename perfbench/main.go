// Command perfbench is the simulator's end-to-end and per-layer
// benchmark. One process runs one workload:
//
//	perfbench --workload paper16 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it makes a separate traced run and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md
// for the workloads, the metric table and how the layers map onto the
// end-to-end numbers.
//
// The benchmark drives the simulator only through public functions:
// core.Run, params, apps, faults, the sim/network/memsys constructors,
// and the serve server, handler and client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// scale sizes a run. Tests use tinyScale; the command always runs full.
type scale struct {
	tiny bool
	// measureProcs is how many fresh processes an untraced run is spread
	// over. A simulation process times one cold set-up; a serve-mix
	// process times restarts server restarts.
	measureProcs, restarts int
	// probeOps sizes the layer probes.
	probeOps int
	// serveApps and serveSeeds size the serve-mix sweep: how many of its
	// applications and fault seeds it runs.
	serveApps, serveSeeds int
}

var fullScale = scale{measureProcs: 3, restarts: 8, probeOps: 400_000, serveApps: 3, serveSeeds: 3}

var tinyScale = scale{tiny: true, measureProcs: 2, restarts: 2, probeOps: 5_000, serveApps: 1, serveSeeds: 1}

func main() {
	// One P, in the measuring processes and the traced run alike. With a
	// second one, the runtime wakes an idle thread to spin at every
	// goroutine handoff, and that spinning is CPU time that depends on
	// how the host schedules the threads (see README.md).
	runtime.GOMAXPROCS(1)
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(measureChild(spec))
	}
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 30, "how long an untraced run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	before := hostProbe()
	rep := newReport()
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		w.traced(rep, *seed, fullScale)
	} else {
		w.untraced(rep, *seed, time.Duration(*seconds)*time.Second, fullScale)
	}
	after := hostProbe()
	fmt.Printf("host: num_cpu=%d loadavg=%s steal=%.1f%% loop_ms=%.1f/%.1f loop_cpu_ms=%.1f/%.1f (start/end)\n",
		runtime.NumCPU(), before.loadavg, 100*(after.steal-before.steal)/(after.total-before.total),
		before.loopMS, after.loopMS, before.loopCPUMS, after.loopCPUMS)
	out := rep.result(defs)
	for _, p := range rep.problems {
		fmt.Println("problem:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// workload is one benchmark input set.
type workload struct {
	untraced func(rep *report, seed int64, d time.Duration, sc scale)
	traced   func(rep *report, seed int64, sc scale)
}

var workloads = map[string]workload{
	"paper16":    {untraced: simsUntraced(paper16), traced: simsTraced(paper16)},
	serveMixName: {untraced: serveUntraced, traced: serveTraced},
}

func workloadNames() []string { return []string{"paper16", "serve-mix"} }

// hostState is the host-drift diagnostic: printed, never gated. When two
// sets of runs disagree, a slower fixed loop, more steal time or a
// higher load average points at the host rather than the program.
type hostState struct {
	loadavg           string
	loopMS, loopCPUMS float64
	// steal and total are the host's summed steal and total jiffies
	// over all CPUs, from /proc/stat.
	steal, total float64
}

// loopSink keeps the compiler from discarding the fixed loop's and the
// reference kernel's results.
var loopSink uint64

func hostProbe() hostState {
	var h hostState
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(data))
		if len(f) >= 3 {
			h.loadavg = strings.Join(f[:3], "/")
		}
	}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
		for i := 1; i < len(f); i++ {
			v, _ := strconv.ParseFloat(f[i], 64)
			h.total += v
			if i == 8 {
				h.steal = v
			}
		}
	}
	t, c := time.Now(), cpuTime()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	loopSink = x
	h.loopMS = float64(time.Since(t).Microseconds()) / 1000
	h.loopCPUMS = float64((cpuTime() - c).Microseconds()) / 1000
	return h
}
