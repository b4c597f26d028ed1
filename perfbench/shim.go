package main

import (
	"reflect"
	"time"

	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/lrc"
	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// layerTimes accumulates the wall clock and work counts of traced
// core.Run calls. The split is measured from outside the program by
// wrapping the dsm.App handed to core.Run:
//
//   - Setup is timed as app set-up (it runs twice per cell: once for
//     the sequential oracle, once for the parallel run);
//   - Body under a *dsm.SeqSystem is the sequential oracle;
//   - otherwise Body gets a dsm.System shim that marks each call's entry
//     and return. Only one simulated processor's goroutine runs at a
//     time, so the gaps between a return and the next entry are exactly
//     the application's own time; everything else in core.Run is the
//     machinery (protocols, memory system, network, engine).
type layerTimes struct {
	run, oracle, setup, self time.Duration

	reads, writes, locks, barriers, computes uint64

	events, handoffs, elided uint64
	maxHeap                  int64
	messages, bytes, retries uint64
	cycles                   int64
	cat                      [stats.NumCategories]int64
	pageFaults, diffsApplied uint64

	// last is the most recent entry/return mark of the running
	// processor's app code.
	last time.Time
}

// machinery is core.Run's wall clock outside the app and the oracle.
func (l *layerTimes) machinery() time.Duration { return l.run - l.oracle - l.setup - l.self }

// merge adds o into l.
func (l *layerTimes) merge(o *layerTimes) {
	l.run += o.run
	l.oracle += o.oracle
	l.setup += o.setup
	l.self += o.self
	l.reads += o.reads
	l.writes += o.writes
	l.locks += o.locks
	l.barriers += o.barriers
	l.computes += o.computes
	l.events += o.events
	l.handoffs += o.handoffs
	l.elided += o.elided
	l.maxHeap = max(l.maxHeap, o.maxHeap)
	l.messages += o.messages
	l.bytes += o.bytes
	l.retries += o.retries
	l.cycles += o.cycles
	for i := range l.cat {
		l.cat[i] += o.cat[i]
	}
	l.pageFaults += o.pageFaults
	l.diffsApplied += o.diffsApplied
}

// addResult folds a finished run's engine, network and modelled-machine
// counters in.
func (l *layerTimes) addResult(res *core.Result) {
	l.events += res.EventsRun
	l.handoffs += uint64(engineCounter(res, "Handoffs"))
	l.elided += uint64(engineCounter(res, "ElidedParks"))
	l.maxHeap = max(l.maxHeap, engineCounter(res, "MaxHeapDepth"))
	l.messages += res.Messages
	l.bytes += res.Bytes
	l.retries += res.Reliability.Retries
	l.cycles += int64(res.RunningTime)
	sum := res.Breakdown.Sum()
	for i := range l.cat {
		l.cat[i] += sum.Cycles[i]
	}
	l.pageFaults += sum.PageFaults
	l.diffsApplied += sum.DiffsApplied
}

// engineCounter reads one field of the result's engine counter block by
// name, 0 when the field does not exist. By name, so that removing a
// counter from the engine (the park-elision fast path may go) does not
// break the benchmark's build.
func engineCounter(res *core.Result, field string) int64 {
	st := reflect.ValueOf(res).Elem().FieldByName("EngineStats")
	if !st.IsValid() || st.Kind() != reflect.Struct {
		return 0
	}
	return intField(st, field)
}

// intField reads an integer field of struct value v by name, 0 when absent.
func intField(v reflect.Value, field string) int64 {
	f := v.FieldByName(field)
	switch {
	case !f.IsValid():
		return 0
	case f.CanInt():
		return f.Int()
	case f.CanUint():
		return int64(f.Uint())
	}
	return 0
}

// set publishes the per-layer metrics of l.
func (l *layerTimes) set(rep *report) {
	rep.set("core.run_s", l.run.Seconds())
	rep.set("dsm.oracle_s", l.oracle.Seconds())
	rep.set("apps.setup_s", l.setup.Seconds())
	rep.set("apps.self_s", l.self.Seconds())
	rep.set("core.machinery_s", l.machinery().Seconds())
	rep.set("apps.shared_reads", float64(l.reads))
	rep.set("apps.shared_writes", float64(l.writes))
	rep.set("apps.locks", float64(l.locks))
	rep.set("apps.barriers", float64(l.barriers))
	rep.set("apps.computes", float64(l.computes))
	rep.set("sim.events", float64(l.events))
	rep.set("sim.handoffs", float64(l.handoffs))
	rep.set("sim.elided_parks", float64(l.elided))
	rep.set("sim.max_heap_depth", float64(l.maxHeap))
	if l.events > 0 {
		rep.set("sim.ns_per_event", float64(l.machinery().Nanoseconds())/float64(l.events))
	}
	rep.set("network.messages", float64(l.messages))
	rep.set("network.bytes", float64(l.bytes))
	rep.set("network.retries", float64(l.retries))
	rep.set("stats.sim_cycles", float64(l.cycles))
	rep.set("stats.busy_cycles", float64(l.cat[stats.Busy]))
	rep.set("stats.data_cycles", float64(l.cat[stats.Data]))
	rep.set("stats.synch_cycles", float64(l.cat[stats.Synch]))
	rep.set("stats.ipc_cycles", float64(l.cat[stats.IPC]))
	rep.set("stats.other_cycles", float64(l.cat[stats.Other]))
	rep.set("stats.page_faults", float64(l.pageFaults))
	rep.set("stats.diffs_applied", float64(l.diffsApplied))
}

// tracedRun is core.Run with the app wrapped by the timing shim. It
// returns the run's own layer split; the caller merges it.
func tracedRun(run func(dsm.App) (*core.Result, error), app dsm.App) (*core.Result, *layerTimes, error) {
	lt := &layerTimes{}
	t := time.Now()
	res, err := run(&tracedApp{App: app, lt: lt})
	lt.run = time.Since(t)
	if err == nil {
		lt.addResult(res)
	}
	return res, lt, err
}

// tracedApp wraps an application with the timing shim.
type tracedApp struct {
	dsm.App
	lt *layerTimes
}

// SetProcs forwards the machine size to apps whose layout depends on it.
func (a *tracedApp) SetProcs(n int) {
	if s, ok := a.App.(dsm.Sized); ok {
		s.SetProcs(n)
	}
}

func (a *tracedApp) Setup(h *lrc.Heap) {
	t := time.Now()
	a.App.Setup(h)
	a.lt.setup += time.Since(t)
}

func (a *tracedApp) Body(env *dsm.Env) {
	if _, ok := env.Sys.(*dsm.SeqSystem); ok {
		t := time.Now()
		a.App.Body(env)
		a.lt.oracle += time.Since(t)
		return
	}
	a.lt.last = time.Now()
	a.App.Body(&dsm.Env{ID: env.ID, P: env.P, Sys: &shimSystem{inner: env.Sys, lt: a.lt}})
	a.lt.self += time.Since(a.lt.last)
}

// shimSystem forwards every dsm.System call, charging the time since the
// previous mark to the app and counting the call.
type shimSystem struct {
	inner dsm.System
	lt    *layerTimes
}

func (s *shimSystem) enter() { s.lt.self += time.Since(s.lt.last) }

func (s *shimSystem) leave() { s.lt.last = time.Now() }

func (s *shimSystem) Read32(p *sim.Proc, id int, a dsm.Addr) uint32 {
	s.enter()
	s.lt.reads++
	v := s.inner.Read32(p, id, a)
	s.leave()
	return v
}

func (s *shimSystem) Write32(p *sim.Proc, id int, a dsm.Addr, v uint32) {
	s.enter()
	s.lt.writes++
	s.inner.Write32(p, id, a, v)
	s.leave()
}

func (s *shimSystem) Read64(p *sim.Proc, id int, a dsm.Addr) uint64 {
	s.enter()
	s.lt.reads++
	v := s.inner.Read64(p, id, a)
	s.leave()
	return v
}

func (s *shimSystem) Write64(p *sim.Proc, id int, a dsm.Addr, v uint64) {
	s.enter()
	s.lt.writes++
	s.inner.Write64(p, id, a, v)
	s.leave()
}

func (s *shimSystem) Compute(p *sim.Proc, id int, c sim.Time) {
	s.enter()
	s.lt.computes++
	s.inner.Compute(p, id, c)
	s.leave()
}

func (s *shimSystem) Lock(p *sim.Proc, id int, l int) {
	s.enter()
	s.lt.locks++
	s.inner.Lock(p, id, l)
	s.leave()
}

func (s *shimSystem) Unlock(p *sim.Proc, id int, l int) {
	s.enter()
	s.inner.Unlock(p, id, l)
	s.leave()
}

func (s *shimSystem) Barrier(p *sim.Proc, id int, b int) {
	s.enter()
	s.lt.barriers++
	s.inner.Barrier(p, id, b)
	s.leave()
}

func (s *shimSystem) Heap() *lrc.Heap { return s.inner.Heap() }

func (s *shimSystem) Procs() int { return s.inner.Procs() }
