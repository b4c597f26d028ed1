package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"dsm96/internal/core"
	"dsm96/internal/tmk"
)

// TestMain lets the test binary act as a measuring process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(measureChild(spec))
	}
	os.Exit(m.Run())
}

// TestShimIsInvisible: a run through the timing shim fires the same
// schedule and models the same machine as an untraced run.
func TestShimIsInvisible(t *testing.T) {
	for _, app := range []string{"radix", "water", "tsp"} {
		for _, spec := range []core.Spec{core.TM(tmk.Base), core.TM(tmk.IPD), core.AURC(false)} {
			c := cell{app, spec, 16}
			t.Run(c.String(), func(t *testing.T) {
				plain, _, err := c.run(tinyScale, nil)
				if err != nil {
					t.Fatal(err)
				}
				var lt layerTimes
				traced, _, err := c.run(tinyScale, &lt)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := outcomeOf(traced), outcomeOf(plain); got != want {
					t.Fatalf("traced run %+v, untraced %+v", got, want)
				}
				if traced.Breakdown.Sum().Cycles != plain.Breakdown.Sum().Cycles || traced.Messages != plain.Messages {
					t.Fatalf("traced breakdown or traffic differs from the untraced run")
				}
				if lt.reads == 0 || lt.barriers == 0 || lt.self <= 0 || lt.oracle <= 0 || lt.machinery() <= 0 {
					t.Fatalf("layer split not measured: %+v", lt)
				}
				if lt.events != plain.EventsRun || lt.handoffs == 0 {
					t.Fatalf("engine counters: %d events (want %d), %d handoffs", lt.events, plain.EventsRun, lt.handoffs)
				}
			})
		}
	}
}

// TestShimForwardsSetProcs: radix sizes its per-processor arrays from
// SetProcs; on a mesh above its 64-slot floor the run validates only if
// the wrapper forwards the machine size.
func TestShimForwardsSetProcs(t *testing.T) {
	c := cell{"radix", core.TM(tmk.Base), 80}
	plain, _, err := c.run(tinyScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lt layerTimes
	traced, _, err := c.run(tinyScale, &lt)
	if err != nil {
		t.Fatal(err)
	}
	if outcomeOf(traced) != outcomeOf(plain) {
		t.Fatalf("traced %+v, untraced %+v", outcomeOf(traced), outcomeOf(plain))
	}
}

func TestQuantiles(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{5}, 0.99, 5},
		{[]float64{2, 8}, 1, 8},
		{[]float64{2, 8}, 0, 2},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if xs := []float64{3, 1, 2}; median(xs) != 2 || xs[0] != 3 {
		t.Errorf("median must not reorder its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing must be NaN")
	}
}

// TestAggregateArithmetic: a simulation workload's pass is the sum of
// its cells' medians, serve-mix's is the median pass, the event rate is
// events over the CPU time of the measured windows, and a sample taken
// while the reference kernel ran at twice its reference time counts
// half.
func TestAggregateArithmetic(t *testing.T) {
	if got := scaled(2*time.Second, 2*refNominal); math.Abs(got-1) > 1e-12 {
		t.Errorf("scaled = %v, want 1", got)
	}
	sims := &aggregate{
		setups:    []float64{0.9, 0.5, 0.7},
		peaks:     []float64{40, 44, 42},
		cellTimes: [][]float64{{1, 3, 2}, {0.5, 0.25, 0.75, 100}},
		events:    3000,
		cpu:       1.5,
	}
	serveAgg := &aggregate{setups: []float64{0.2}, peaks: []float64{30}, passes: []float64{4, 1, 2, 3}, events: 10, cpu: 4}
	for _, c := range []struct {
		agg  *aggregate
		want map[string]float64
	}{
		{sims, map[string]float64{"setup_s": 0.7, "peak_rss_mb": 42, "pass_cpu_s": 2 + 0.625, "events_per_cpu_s": 2000}},
		{serveAgg, map[string]float64{"setup_s": 0.2, "peak_rss_mb": 30, "pass_cpu_s": 2.5, "events_per_cpu_s": 2.5}},
	} {
		rep := newReport()
		c.agg.set(rep)
		for k, want := range c.want {
			if got := rep.metrics[k]; math.Abs(got-want) > 1e-12 {
				t.Errorf("%s = %v, want %v", k, got, want)
			}
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metric names,
// units and directions equal to the declared benchmark.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestWorkloadsReportEveryMetric runs every workload at tiny scale,
// untraced and traced, and checks that each reports exactly its table's
// metrics with no failed operation.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range workloadNames() {
		w := workloads[name]
		for _, traced := range []bool{false, true} {
			rep := newReport()
			defs := endToEnd
			if traced {
				defs = perLayer
				w.traced(rep, 7, tinyScale)
			} else {
				w.untraced(rep, 7, time.Nanosecond, tinyScale)
			}
			out := rep.result(defs)
			if rep.failed != 0 {
				t.Fatalf("%s traced=%t: %d of %d operations failed: %v", name, traced, rep.failed, rep.attempted, rep.problems)
			}
			var got, want []string
			for k := range out["metrics"].(map[string]metricValue) {
				got = append(got, k)
			}
			for _, d := range defs {
				want = append(want, d.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !equalStrings(got, want) {
				t.Errorf("%s traced=%t printed %v, want %v", name, traced, got, want)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
