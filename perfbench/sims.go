package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/faults"
	"dsm96/internal/params"
	"dsm96/internal/tmk"
)

// cell is one simulation: an application under a protocol on a mesh.
type cell struct {
	app   string
	spec  core.Spec
	procs int
}

func (c cell) String() string { return fmt.Sprintf("%s/%s@%d", c.app, c.spec, c.procs) }

// simWorkload is a list of cells run one at a time, in order. The first
// cell is the one a fresh process's set-up is timed on.
type simWorkload struct {
	name  string
	cells func(seed int64) []cell
}

// paper16 is the paper's 16-node evaluation at default scale: all six
// applications under Base, I+P+D and AURC, plus em3d I+P+D over a lossy
// link (2% drop, fault seed from --seed) for the reliable transport.
var paper16 = simWorkload{
	name: "paper16",
	cells: func(seed int64) []cell {
		var cs []cell
		for _, a := range apps.Names() {
			for _, s := range []core.Spec{core.TM(tmk.Base), core.TM(tmk.IPD), core.AURC(false)} {
				cs = append(cs, cell{a, s, 16})
			}
		}
		lossy := core.TM(tmk.IPD)
		lossy.Faults = &faults.Plan{Seed: uint64(seed), Default: faults.Link{Drop: 0.02}}
		return append(cs, cell{"em3d", lossy, 16})
	},
}

// newApp builds a fresh instance of the cell's application.
func (c cell) newApp(sc scale) (dsm.App, error) {
	if sc.tiny {
		return apps.Tiny(c.app)
	}
	return apps.Default(c.app)
}

// run simulates the cell, untraced or through the timing shim.
func (c cell) run(sc scale, lt *layerTimes) (*core.Result, time.Duration, error) {
	app, err := c.newApp(sc)
	if err != nil {
		return nil, 0, err
	}
	cfg := params.Mesh(c.procs)
	runApp := func(a dsm.App) (*core.Result, error) { return core.Run(cfg, c.spec, a) }
	if lt != nil {
		res, one, err := tracedRun(runApp, app)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", c, err)
		}
		lt.merge(one)
		return res, one.run, nil
	}
	t := time.Now()
	res, err := runApp(app)
	d := time.Since(t)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", c, err)
	}
	return res, d, nil
}

// outcome is what must repeat exactly every time a cell runs.
type outcome struct {
	Fingerprint uint64
	Cycles      int64
	Events      uint64
}

func outcomeOf(res *core.Result) outcome {
	return outcome{res.EventFingerprint, int64(res.RunningTime), res.EventsRun}
}

// check compares a repeat against the first run of the same cell.
func (o outcome) check(c cell, ref outcome) error {
	if o != ref {
		return fmt.Errorf("%s did not repeat: fingerprint %016x, %d cycles, %d events; first run %016x, %d cycles, %d events",
			c, o.Fingerprint, o.Cycles, o.Events, ref.Fingerprint, ref.Cycles, ref.Events)
	}
	return nil
}

// simsUntraced is the end-to-end run of a simulation workload, spread
// over fresh measuring processes (see runChildren).
func simsUntraced(w simWorkload) func(*report, int64, time.Duration, scale) {
	return func(rep *report, seed int64, d time.Duration, sc scale) {
		agg := runChildren(rep, childJob{Workload: w.name, Seed: seed, Tiny: sc.tiny}, d, sc, len(w.cells(seed)))
		agg.set(rep)
		medians := make([]float64, len(agg.cellTimes))
		for i, ts := range agg.cellTimes {
			medians[i] = median(ts)
		}
		fmt.Printf("%s: %.0f events in %.3f s wall, %.3f CPU s at the reference speed; reference kernel median %.2f ms; cell medians %s s; set-up in %d fresh processes %s s\n",
			w.name, agg.events, agg.elapsed, agg.cpu, 1000*median(agg.refs), fmtList(medians), len(agg.setups), fmtList(agg.setups))
	}
}

// measureSims is a simulation workload's measuring process. Its set-up
// time is the CPU time the process has used by the end of its cold
// first cell. Then cells run back to back, in order and over again,
// until job.Measure has elapsed and at least one pass is complete,
// stopping at the first cell boundary after that. Every cell run is a
// sample of its cell's CPU time, scaled by the reference kernel run
// just before it.
func measureSims(w simWorkload, job childJob, sc scale, rep *report) *childResult {
	cells := w.cells(job.Seed)
	cr := &childResult{Outcomes: make([]string, len(cells)), CellTimes: make([][]float64, len(cells))}
	refs := make([]*outcome, len(cells))
	res, _, err := cells[0].run(sc, nil)
	setup := cpuTime()
	cr.Setups = []float64{scaled(setup, refKernel())}
	rep.op(err)
	if err == nil {
		checkRef(rep, cells[0], &refs[0], res)
	}
	start := time.Now()
	for i, n := 0, 0; n < len(cells) || time.Since(start) < job.Measure; i, n = (i+1)%len(cells), n+1 {
		ref := refKernel()
		cr.Refs = append(cr.Refs, ref.Seconds())
		c := cpuTime()
		res, _, err := cells[i].run(sc, nil)
		took := scaled(cpuTime()-c, ref)
		rep.op(err)
		if err == nil {
			checkRef(rep, cells[i], &refs[i], res)
			cr.Events += float64(res.EventsRun)
			cr.CPUS += took
			cr.CellTimes[i] = append(cr.CellTimes[i], took)
		}
	}
	cr.ElapsedS = time.Since(start).Seconds()
	for i, o := range refs {
		if o != nil {
			cr.Outcomes[i] = fmt.Sprintf("%016x/%d/%d", o.Fingerprint, o.Cycles, o.Events)
		}
	}
	return cr
}

// checkRef records the first outcome of a cell, or checks a repeat
// against it; a mismatch fails the operation.
func checkRef(rep *report, c cell, ref **outcome, res *core.Result) {
	o := outcomeOf(res)
	if *ref == nil {
		*ref = &o
		return
	}
	if err := o.check(c, **ref); err != nil {
		rep.fail(err)
	}
}

// simsTraced is the per-layer run of a simulation workload: one untraced
// pass as the reference, one pass through the timing shim, the layer
// probes, and a short traced serve session for the serve layer.
func simsTraced(w simWorkload) func(*report, int64, scale) {
	return func(rep *report, seed int64, sc scale) {
		cells := w.cells(seed)
		refs := make([]*outcome, len(cells))
		var plain, traced time.Duration
		for i, c := range cells {
			res, d, err := c.run(sc, nil)
			rep.op(err)
			if err == nil {
				checkRef(rep, c, &refs[i], res)
				plain += d
			}
		}
		var lt layerTimes
		for i, c := range cells {
			res, d, err := c.run(sc, &lt)
			rep.op(err)
			if err == nil {
				// The shim must be invisible to the simulation: the
				// traced schedule and the modelled machine's numbers
				// equal the untraced run's.
				checkRef(rep, c, &refs[i], res)
				traced += d
			}
		}
		if lt.machinery() <= 0 {
			rep.fail(fmt.Errorf("layer split does not add up: core.Run %v, oracle %v, set-up %v, app self %v",
				lt.run, lt.oracle, lt.setup, lt.self))
		}
		lt.set(rep)
		rep.set("bench.trace_overhead_pct", 100*(traced.Seconds()/plain.Seconds()-1))
		fmt.Printf("%s traced: core.Run %.3f s = oracle %.3f + app set-up %.3f + app self %.3f + machinery %.3f; untraced pass %.3f s, traced %.3f s\n",
			w.name, lt.run.Seconds(), lt.oracle.Seconds(), lt.setup.Seconds(), lt.self.Seconds(), lt.machinery().Seconds(), plain.Seconds(), traced.Seconds())
		runProbes(rep, sc)
		// The serve layer, which this workload does not reach, measured
		// as serve-mix's traced run measures it.
		serveLayers(rep, seed, sc)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
