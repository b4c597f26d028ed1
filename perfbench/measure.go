package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// childEnv carries a childJob to a measuring process.
const childEnv = "PERFBENCH_CHILD"

// childJob is what a measuring process is asked to do.
type childJob struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Tiny     bool          `json:"tiny"`
	Measure  time.Duration `json:"measure_ns"`
}

// childResult is what a measuring process reports back. Setups, Passes,
// CellTimes and CPUS are CPU seconds at the reference speed (see
// scaled); Refs are the reference kernel's own.
type childResult struct {
	Setups []float64 `json:"setups"`
	Passes []float64 `json:"passes"`
	// CellTimes holds each simulation cell's samples.
	CellTimes [][]float64 `json:"cell_times,omitempty"`
	// Events counts the simulated events of the measured window, CPUS
	// the CPU seconds it took.
	Events float64   `json:"events"`
	CPUS   float64   `json:"cpu_s"`
	Refs   []float64 `json:"refs"`
	// ElapsedS and WallPasses are wall clock, printed for reference only.
	ElapsedS   float64   `json:"elapsed_s"`
	WallPasses []float64 `json:"wall_passes"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	// Outcomes are the deterministic results of the process's operations
	// by position (cell, or request index); every process must agree.
	Outcomes  []string `json:"outcomes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems"`
}

// aggregate pools the measuring processes' samples.
type aggregate struct {
	setups, passes, wallPasses, peaks, refs []float64
	cellTimes                               [][]float64
	events, cpu, elapsed                    float64
}

// set publishes the end-to-end metrics. A simulation workload's pass
// time is assembled cell by cell, from each cell's median over all its
// runs: a run holds only a few whole passes but dozens of cell runs.
// serve-mix has enough passes and uses them directly.
func (a *aggregate) set(rep *report) {
	rep.set("setup_s", median(a.setups))
	rep.set("peak_rss_mb", median(a.peaks))
	rep.set("events_per_cpu_s", a.events/a.cpu)
	if a.cellTimes == nil {
		rep.set("pass_cpu_s", median(a.passes))
		return
	}
	var pass float64
	for _, ts := range a.cellTimes {
		pass += median(ts)
	}
	rep.set("pass_cpu_s", pass)
}

// runChildren runs an untraced measurement in sc.measureProcs fresh
// processes, one after another, sharing the wall-clock budget d between
// them, and pools their samples. Whole processes of the simulator differ
// in speed from one to the next (see README.md), so a run pools several
// shorter processes rather than one long one; each also gives one cold
// set-up sample. Each process's share is what is left of d over the
// processes left, so one process's overrun shortens the next one's.
func runChildren(rep *report, job childJob, d time.Duration, sc scale, outcomes int) *aggregate {
	agg := &aggregate{}
	exe, err := os.Executable()
	if err != nil {
		rep.op(fmt.Errorf("measuring process: %w", err))
		return agg
	}
	var refs []string
	for k := 0; k < sc.measureProcs; k++ {
		left := d - time.Duration(agg.elapsed*float64(time.Second))
		job.Measure = max(left/time.Duration(sc.measureProcs-k), 0)
		spec, err := json.Marshal(job)
		if err != nil {
			rep.op(err)
			return agg
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var cr childResult
		if err == nil {
			err = json.Unmarshal(out, &cr)
		}
		if err == nil && len(cr.Outcomes) != outcomes {
			err = fmt.Errorf("reported %d outcomes, want %d", len(cr.Outcomes), outcomes)
		}
		if err != nil {
			rep.op(fmt.Errorf("measuring process %d: %w", k, err))
			continue
		}
		rep.attempted += cr.Attempted
		for _, p := range cr.Problems {
			rep.fail(fmt.Errorf("measuring process %d: %s", k, p))
		}
		rep.failed += cr.Failed - len(cr.Problems)
		if refs == nil {
			refs = cr.Outcomes
		}
		for i, o := range cr.Outcomes {
			if o != "" && refs[i] != "" && o != refs[i] {
				rep.fail(fmt.Errorf("measuring process %d: outcome %d is %s, process 0 had %s", k, i, o, refs[i]))
			} else if refs[i] == "" {
				refs[i] = o
			}
		}
		if cr.CellTimes != nil {
			if agg.cellTimes == nil {
				agg.cellTimes = make([][]float64, len(cr.CellTimes))
			}
			for i, ts := range cr.CellTimes {
				agg.cellTimes[i] = append(agg.cellTimes[i], ts...)
			}
		}
		agg.setups = append(agg.setups, cr.Setups...)
		agg.passes = append(agg.passes, cr.Passes...)
		agg.wallPasses = append(agg.wallPasses, cr.WallPasses...)
		agg.refs = append(agg.refs, cr.Refs...)
		agg.peaks = append(agg.peaks, cr.PeakRSSMB)
		agg.events += cr.Events
		agg.cpu += cr.CPUS
		agg.elapsed += cr.ElapsedS
	}
	return agg
}

// measureChild is the body of a measuring process: it runs the job and
// prints its childResult as one JSON line.
func measureChild(spec string) int {
	var job childJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: bad measuring job:", err)
		return 2
	}
	sc := fullScale
	if job.Tiny {
		sc = tinyScale
	}
	rep := newReport()
	var cr *childResult
	switch job.Workload {
	case paper16.name:
		cr = measureSims(paper16, job, sc, rep)
	case serveMixName:
		cr = measureServe(job, sc, rep)
	default:
		fmt.Fprintln(os.Stderr, "perfbench: no workload", job.Workload)
		return 2
	}
	cr.PeakRSSMB = peakRSSMB()
	cr.Attempted, cr.Failed, cr.Problems = rep.attempted, rep.failed, rep.problems
	out, err := json.Marshal(cr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// cpuTime is the CPU time (user plus system) the process has used so
// far, over all its threads. The end-to-end timings start from CPU time,
// not wall clock: on a shared host the wall clock also counts the time
// the process waits for a CPU that another tenant holds.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refNominal is the reference kernel's CPU time at the reference speed,
// about what it took on the host the benchmark was sized on.
const refNominal = 12500 * time.Microsecond

// scaled converts cpu, a CPU time measured right after the reference
// kernel took ref, into CPU seconds at the reference speed. On the
// shared host the benchmark was sized on, the CPU time of the same
// paper16 cell or server restart moved by up to a half between quiet and
// busy spells, some lasting under a second, and the kernel's moved with
// it (see README.md).
func scaled(cpu, ref time.Duration) float64 {
	return cpu.Seconds() * refNominal.Seconds() / ref.Seconds()
}

// refKernel runs a fixed amount of work that does not depend on the
// program and returns the CPU time it took: 20,000 round trips between
// two goroutines over unbuffered channels, each one a pair of goroutine
// switches, which is the simulator's commonest host operation.
func refKernel() time.Duration {
	t := cpuTime()
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	x := uint64(1)
	for i := 0; i < 20_000; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	for range pong {
	}
	loopSink += x
	return cpuTime() - t
}
